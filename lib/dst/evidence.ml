type t = Mass.F.t

exception Parse_error of string * string

(* ------------------------------------------------------------------ *)
(* Lexer for the paper's evidence-set notation. The parser pulls one  *)
(* token at a time from a cursor, so no token list is built.          *)

type token =
  | Lbracket
  | Rbracket
  | Lbrace
  | Rbrace
  | Semi
  | Comma
  | Caret
  | Omega
  | Lit of string
  | Eof

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* Characters that end an unquoted literal. *)
let ends_literal c =
  is_space c
  || match c with '[' | ']' | '{' | '}' | ';' | ',' | '^' -> true | _ -> false

(* The token at or after [!pos]; moves [pos] past it. *)
let next input pos =
  let n = String.length input in
  let rec skip i = if i < n && is_space input.[i] then skip (i + 1) else i in
  let i = skip !pos in
  if i >= n then (
    pos := n;
    Eof)
  else (
    pos := i + 1;
    match input.[i] with
    | '[' -> Lbracket
    | ']' -> Rbracket
    | '{' -> Lbrace
    | '}' -> Rbrace
    | ';' -> Semi
    | ',' -> Comma
    | '^' -> Caret
    | '~' -> Omega
    | '"' ->
        (* Quoted string literal: scan to the closing quote, honouring
           backslash escapes. *)
        let rec close j =
          if j >= n then
            raise (Parse_error (input, "unterminated string literal"))
          else if input.[j] = '\\' then close (j + 2)
          else if input.[j] = '"' then j
          else close (j + 1)
        in
        let j = close (i + 1) in
        pos := j + 1;
        Lit (String.sub input i (j - i + 1))
    | _ ->
        let rec stop j =
          if j < n && not (ends_literal input.[j]) then stop (j + 1) else j
        in
        let j = stop i in
        pos := j;
        Lit (String.sub input i (j - i)))

(* ------------------------------------------------------------------ *)
(* Recursive-descent parser.                                           *)

let parse_mass fail tok =
  match tok with
  | Lit s -> (
      match String.index_opt s '/' with
      | Some k -> (
          let a = String.sub s 0 k
          and b = String.sub s (k + 1) (String.length s - k - 1) in
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b when b <> 0 -> float_of_int a /. float_of_int b
          | _ -> fail ("malformed fraction " ^ s))
      | None -> (
          match float_of_string_opt s with
          | Some f -> f
          | None -> fail ("expected a mass, got " ^ s)))
  | _ -> fail "expected a mass value"

let of_string frame input =
  let pos = ref 0 in
  let next () = next input pos in
  (* An unterminated string literal anywhere in the input is the error
     reported, ahead of any syntax or literal error before it: the rest
     of the input is lexed before either is raised. *)
  let rec drain () = match next () with Eof -> () | _ -> drain () in
  let fail msg =
    drain ();
    raise (Parse_error (input, msg))
  in
  let literal s =
    try Value.of_literal s
    with Invalid_argument _ as e ->
      drain ();
      raise e
  in
  (* Each member's mask is set bit by bit from the parsed values. A value
     outside the frame is kept aside: the input is then rebuilt as value
     sets and handed to [Mass.F.make], so that the error names the whole
     focal set and any earlier entry's error still comes first. *)
  let outside = ref false in
  let add_value mask extra v =
    let i = Domain.index frame v in
    if i >= 0 then (
      Domain.add_bit mask i;
      extra)
    else (
      outside := true;
      v :: extra)
  in
  let member () =
    match next () with
    | Omega -> (Domain.full_mask frame, [])
    | Lit s ->
        let mask = Domain.empty_mask frame in
        (mask, add_value mask [] (literal s))
    | Lbrace ->
        let mask = Domain.empty_mask frame in
        let rec elems extra any =
          match next () with
          | Lit s -> (
              match next () with
              | Comma -> elems (add_value mask extra (literal s)) true
              | Rbrace -> add_value mask extra (literal s)
              | _ -> fail "malformed set {…}")
          | Rbrace when any -> extra
          | _ -> fail "malformed set {…}"
        in
        (mask, elems [] false)
    | _ -> fail "expected a focal element"
  in
  let rec focals acc =
    let mask, extra = member () in
    let mass =
      match next () with
      | Caret -> (
          match next () with
          | Eof -> fail "expected ^mass after focal element"
          | tok -> parse_mass fail tok)
      | _ -> fail "expected ^mass after focal element"
    in
    let acc = (mask, extra, mass) :: acc in
    match next () with
    | Semi -> focals acc
    | Rbracket -> (
        match next () with
        | Eof -> List.rev acc
        | _ -> fail "trailing input after ]")
    | _ -> fail "expected ; or ]"
  in
  match next () with
  | Lbracket ->
      let entries = focals [] in
      if !outside then
        Mass.F.make frame
          (List.map
             (fun (mask, extra, x) ->
               let set = Domain.vset_at frame mask 0 in
               (Vset.union set (Vset.of_list extra), x))
             entries)
      else
        Mass.F.make_masks frame
          (List.map (fun (mask, _, x) -> (mask, x)) entries)
  | _ -> fail "expected ["

let to_string = Mass.F.to_string
let pp = Mass.F.pp

let of_counts frame tallies =
  let omega = Domain.values frame in
  let entries =
    List.map
      (fun (set, count) ->
        if count < 0 then
          raise (Mass.F.Invalid_mass "negative vote count")
        else if Vset.is_empty set then (omega, float_of_int count)
        else (set, float_of_int count))
      tallies
  in
  Mass.F.make_normalized frame entries

let of_value_counts frame tallies =
  of_counts frame
    (List.map (fun (v, c) -> (Vset.singleton v, c)) tallies)

let definite = Mass.F.certain
