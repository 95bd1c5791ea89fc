(* A minimal JSON value, printer and parser: enough for the ledger's
   own files, BENCHMARK.json and the one-line results child runs print.
   Objects print with sorted keys so ledger files diff stably. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Shortest decimal that reads back as the same float, so measured
   values keep all their digits without printing 17 of them. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let sorted fields = List.sort (fun (a, _) (b, _) -> String.compare a b) fields

(* [indent] = None prints on one line; Some n pretty-prints with n
   spaces per level. *)
let to_string ?indent v =
  let b = Buffer.create 256 in
  let nl depth =
    match indent with
    | None -> ()
    | Some n ->
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make (n * depth) ' ')
  in
  let sep = match indent with None -> ", " | Some _ -> "," in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (number f)
    | Str s -> Buffer.add_string b (escape s)
    | List [] -> Buffer.add_string b "[]"
    | Obj [] -> Buffer.add_string b "{}"
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b sep;
            nl (depth + 1);
            go (depth + 1) x)
          xs;
        nl depth;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string b sep;
            nl (depth + 1);
            Buffer.add_string b (escape k);
            Buffer.add_string b ": ";
            go (depth + 1) x)
          (sorted fields);
        nl depth;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            skip ();
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (incr pos; List [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        if !pos = start then fail "unexpected character";
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing input";
  v

let member k = function
  | Obj fields -> (
      match List.assoc_opt k fields with
      | Some v -> v
      | None -> raise (Parse_error ("missing key " ^ k)))
  | _ -> raise (Parse_error ("not an object looking up " ^ k))

let to_num = function
  | Num f -> f
  | _ -> raise (Parse_error "expected a number")

let to_str = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

let to_list = function
  | List xs -> xs
  | _ -> raise (Parse_error "expected a list")

let to_obj = function
  | Obj fields -> fields
  | _ -> raise (Parse_error "expected an object")
