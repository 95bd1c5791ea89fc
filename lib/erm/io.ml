exception Io_error of { line : int; col : int; message : string }

let fail ?(col = 0) line fmt =
  Format.kasprintf (fun message -> raise (Io_error { line; col; message })) fmt

(* Number of blanks (spaces and tabs) that open [s.[i] .. s.[stop-1]]. *)
let blanks s i stop =
  let blank c = c = ' ' || c = '\t' in
  let rec go j = if j < stop && blank s.[j] then go (j + 1) else j in
  go i - i

let lead s = blanks s 0 (String.length s)

(* The bounds of [s.[i] .. s.[stop-1]] without the leading and trailing
   whitespace that [String.trim] removes. *)
let trim_bounds s i stop =
  let space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t' in
  let rec first i = if i < stop && space s.[i] then first (i + 1) else i in
  let i = first i in
  let rec last j = if j > i && space s.[j - 1] then last (j - 1) else j in
  (i, last stop)

let string_mentions haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n > 0 && go 0

(* "name : string" or "name : evidence {a, b, c}". [col] is the 1-based
   column of the declaration body in its source line. *)
let parse_attr_decl ?(col = 0) line body =
  match String.index_opt body ':' with
  | None -> fail ~col line "expected `name : kind` in attribute declaration"
  | Some i ->
      let name = String.trim (String.sub body 0 i) in
      let kind_raw = String.sub body (i + 1) (String.length body - i - 1) in
      let kcol = if col = 0 then 0 else col + i + 1 + lead kind_raw in
      let kind = String.trim kind_raw in
      if name = "" then fail ~col line "empty attribute name"
      else if String.length kind >= 8 && String.sub kind 0 8 = "evidence" then
        let spec = String.trim (String.sub kind 8 (String.length kind - 8)) in
        let inner =
          if String.length spec >= 2 && spec.[0] = '{'
             && spec.[String.length spec - 1] = '}'
          then String.sub spec 1 (String.length spec - 2)
          else fail ~col:kcol line "expected evidence {v1, v2, …}"
        in
        let values =
          String.split_on_char ',' inner
          |> List.map String.trim
          |> List.filter (fun v -> v <> "")
          |> List.map Dst.Value.of_literal
        in
        if values = [] then fail ~col:kcol line "empty evidence domain"
        else Attr.evidential name (Dst.Domain.of_values name values)
      else
        try Attr.definite name kind
        with Invalid_argument _ ->
          fail ~col:kcol line "unknown attribute kind %s" kind

let parse_definite ?(col = 0) line kind raw =
  let raw = String.trim raw in
  match kind with
  | "string" ->
      if String.length raw >= 2 && raw.[0] = '"' then
        (try Dst.Value.of_literal raw
         with Invalid_argument m -> fail ~col line "%s" m)
      else Dst.Value.string raw
  | "int" -> (
      match int_of_string_opt raw with
      | Some n -> Dst.Value.int n
      | None -> fail ~col line "expected an int, got %s" raw)
  | "float" -> (
      match float_of_string_opt raw with
      | Some f -> Dst.Value.float f
      | None -> fail ~col line "expected a float, got %s" raw)
  | "bool" -> (
      match bool_of_string_opt raw with
      | Some b -> Dst.Value.bool b
      | None -> fail ~col line "expected a bool, got %s" raw)
  | _ -> fail ~col line "unknown value kind %s" kind

let parse_cell ?(col = 0) line attr raw =
  match Attr.kind attr with
  | Attr.Definite kind -> Etuple.Definite (parse_definite ~col line kind raw)
  | Attr.Evidential domain -> (
      try Etuple.Evidence (Dst.Evidence.of_string domain (String.trim raw))
      with
      | Dst.Evidence.Parse_error (_, m) ->
          fail ~col line "bad evidence for %s: %s" (Attr.name attr) m
      | Dst.Mass.F.Invalid_mass m ->
          fail ~col line "bad evidence for %s: %s" (Attr.name attr) m)

(* Parses the row body [s.[first] .. s.[stop-1]]. [base_col] is the
   1-based column of [s.[first]] in its source line (0 when unknown), so
   each field's own column follows from the positions of the '|'
   separators. *)
let parse_row ~base_col line schema s first stop =
  let expected = Schema.arity schema + 1 in
  let got = ref 1 in
  for i = first to stop - 1 do
    if s.[i] = '|' then incr got
  done;
  if !got <> expected then
    fail ~col:base_col line "expected %d |-separated fields, got %d" expected
      !got;
  let pos = ref first in
  (* The next field's column and trimmed text. *)
  let field () =
    let a = !pos in
    let rec bar j = if j < stop && s.[j] <> '|' then bar (j + 1) else j in
    let b = bar a in
    pos := b + 1;
    let col =
      if base_col = 0 then 0 else base_col + (a - first) + blanks s a b
    in
    let i, j = trim_bounds s a b in
    (col, String.sub s i (j - i))
  in
  (* A fold, not List.map, so fields are consumed left to right. *)
  let fields attrs parse =
    List.rev
      (List.fold_left
         (fun acc attr ->
           let col, raw = field () in
           parse ~col attr raw :: acc)
         [] attrs)
  in
  let key =
    fields (Schema.key schema) (fun ~col attr raw ->
        match Attr.kind attr with
        | Attr.Definite kind -> parse_definite ~col line kind raw
        | Attr.Evidential _ -> fail ~col line "evidential key attribute")
  in
  let cells =
    fields (Schema.nonkey schema) (fun ~col attr raw ->
        parse_cell ~col line attr raw)
  in
  let tm =
    let col, raw = field () in
    try Dst.Support.of_string raw
    with Invalid_argument _ | Dst.Support.Invalid_support _ ->
      fail ~col line "bad membership pair %s" raw
  in
  try Etuple.make schema ~key ~cells ~tm
  with Etuple.Tuple_error m -> fail ~col:base_col line "%s" m

type block = {
  rname : string;
  rline : int;
  (* Newest first; reversed once when the block is built. *)
  mutable keys : Attr.t list;
  mutable attrs : Attr.t list;
  mutable rows : (int * int * int * int) list;  (* line, column, body bounds *)
}

(* One pass over the lines, by index: directives are checked and
   declarations parsed as they come, tuple rows are kept as bounds into
   [input] and parsed once their block's schema is known. *)
let relations_of_string input =
  let n = String.length input in
  let newlines = ref 0 in
  String.iter (fun c -> if c = '\n' then incr newlines) input;
  Obs.Metrics.incr ~by:(!newlines + 1) "io.parse.lines";
  let blocks = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | Some b ->
        blocks := b :: !blocks;
        current := None
    | None -> ()
  in
  let directive lineno start stop =
    let indent = blanks input start stop in
    let ls, le = trim_bounds input start stop in
    if ls < le && input.[ls] <> '#' then begin
      let rec to_space k =
        if k < le && input.[k] <> ' ' then to_space (k + 1) else k
      in
      let word_end = to_space ls in
      let word_len = word_end - ls in
      let bs, be = trim_bounds input word_end le in
      (* 1-based column of the body's first character in the raw line. *)
      let body_col = indent + word_len + blanks input word_end le + 1 in
      let body () = String.sub input bs (be - bs) in
      match String.sub input ls word_len with
      | "relation" ->
          flush ();
          if bs = be then fail ~col:(indent + 1) lineno "relation needs a name"
          else
            current :=
              Some
                { rname = body ();
                  rline = lineno;
                  keys = [];
                  attrs = [];
                  rows = [] }
      | word -> (
          match (!current, word) with
          | None, _ ->
              fail ~col:(indent + 1) lineno "expected `relation <name>` first"
          | Some b, "key" ->
              b.keys <- parse_attr_decl ~col:body_col lineno (body ()) :: b.keys
          | Some b, "attr" ->
              b.attrs <-
                parse_attr_decl ~col:body_col lineno (body ()) :: b.attrs
          | Some b, "tuple" -> b.rows <- (lineno, body_col, bs, be) :: b.rows
          | Some _, other ->
              fail ~col:(indent + 1) lineno "unknown directive %s" other)
    end
  in
  let rec lines lineno start =
    let stop =
      match String.index_from_opt input start '\n' with
      | Some k -> k
      | None -> n
    in
    directive lineno start stop;
    if stop < n then lines (lineno + 1) (stop + 1)
  in
  lines 1 0;
  flush ();
  List.rev_map
    (fun b ->
      let schema =
        try Schema.make ~name:b.rname ~key:(List.rev b.keys)
              ~nonkey:(List.rev b.attrs)
        with Schema.Schema_error m ->
          fail b.rline "relation %s: %s" b.rname m
      in
      List.fold_left
        (fun r (lineno, col, first, stop) ->
          let tuple = parse_row ~base_col:col lineno schema input first stop in
          try Relation.add r tuple
          with
          | Relation.Duplicate_key _ -> fail ~col lineno "duplicate key"
          | Relation.Relation_error m -> fail ~col lineno "%s" m)
        (Relation.empty schema) (List.rev b.rows))
    !blocks

let relation_of_string input =
  match relations_of_string input with
  | [ r ] -> r
  | l -> fail 0 "expected exactly one relation, found %d" (List.length l)

(* Serialization writes each row into one Buffer, without Format: a
   Format break hint wraps a long focal set at the 78-column margin, and
   a row must stay on one line.

   Masses print losslessly but readably: the shortest of
   %.15g/%.16g/%.17g that parses back to the same double (%.17g is always
   exact; most masses round-trip at 15 digits already). [format_float]
   is the primitive behind Printf's %g, without the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let exact_float x =
  let exact s =
    match float_of_string_opt s with
    | Some y -> Float.equal y x
    | None -> false
  in
  let s = format_float "%.15g" x in
  if exact s then s
  else
    let s = format_float "%.16g" x in
    if exact s then s else format_float "%.17g" x

let add_value buf v = Buffer.add_string buf (Dst.Value.to_string v)

(* Focal sets print straight from their masks: Ω as [~], a singleton as
   its value, any other set as {v1, v2, …}. *)
let add_evidence buf e =
  let frame = Dst.Mass.F.frame e in
  let w = Dst.Domain.words frame and sets = Dst.Mass.F.focal_sets e in
  Buffer.add_char buf '[';
  for k = 0 to Dst.Mass.F.focal_count e - 1 do
    if k > 0 then Buffer.add_string buf "; ";
    if Dst.Domain.is_full_at frame sets (k * w) then Buffer.add_char buf '~'
    else Dst.Domain.add_set_at buf frame sets (k * w);
    Buffer.add_char buf '^';
    Buffer.add_string buf (exact_float (Dst.Mass.F.focal_mass e k))
  done;
  Buffer.add_char buf ']'

let add_support buf s =
  Buffer.add_char buf '(';
  Buffer.add_string buf (exact_float (Dst.Support.sn s));
  Buffer.add_string buf ", ";
  Buffer.add_string buf (exact_float (Dst.Support.sp s));
  Buffer.add_char buf ')'

let add_cell buf = function
  | Etuple.Definite v -> add_value buf v
  | Etuple.Evidence e -> add_evidence buf e

(* Key values, cells and the membership pair, separated by " | ". *)
let add_row buf t =
  let field add x =
    add buf x;
    Buffer.add_string buf " | "
  in
  List.iter (field add_value) (Etuple.key t);
  List.iter (field add_cell) (Etuple.cells t);
  add_support buf (Etuple.tm t)

let attr_decl a =
  match Attr.kind a with
  | Attr.Definite k -> Attr.name a ^ " : " ^ k
  | Attr.Evidential d ->
      Attr.name a ^ " : evidence {"
      ^ String.concat ", "
          (List.map Dst.Value.to_string
             (Dst.Vset.to_list (Dst.Domain.values d)))
      ^ "}"

let add_schema buf schema =
  let line directive body =
    Buffer.add_string buf directive;
    Buffer.add_string buf body;
    Buffer.add_char buf '\n'
  in
  line "relation " (Schema.name schema);
  List.iter (fun a -> line "key " (attr_decl a)) (Schema.key schema);
  List.iter (fun a -> line "attr " (attr_decl a)) (Schema.nonkey schema)

let schema_to_string schema =
  let buf = Buffer.create 128 in
  add_schema buf schema;
  Buffer.contents buf

let schema_of_string s =
  match relations_of_string s with
  | [ r ] -> Relation.schema r
  | l -> fail 0 "expected exactly one relation header, found %d" (List.length l)

let tuple_to_string t =
  let buf = Buffer.create 128 in
  add_row buf t;
  Buffer.contents buf

let tuple_of_string schema s =
  parse_row ~base_col:0 0 schema s 0 (String.length s)

let to_string r =
  let buf = Buffer.create 4096 in
  add_schema buf (Relation.schema r);
  Relation.iter
    (fun t ->
      Buffer.add_string buf "tuple ";
      add_row buf t;
      Buffer.add_char buf '\n')
    r;
  Buffer.contents buf

(* Both failure channels carry the file path: open_in's Sys_error
   already does, parse errors get it prefixed — a federation of dozens
   of .erd files is undebuggable from "line 3: bad membership pair"
   alone. *)
let load path =
  let body () =
    let ic =
      try open_in path
      with Sys_error m ->
        raise (Sys_error (if string_mentions m path then m else path ^ ": " ^ m))
    in
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    let rels =
      try relations_of_string content
      with Io_error { line; col; message } ->
        raise (Io_error { line; col; message = path ^ ": " ^ message })
    in
    Obs.Metrics.incr "io.load.files";
    Obs.Metrics.incr ~by:(List.length rels) "io.load.relations";
    rels
  in
  if Obs.Trace.on () then
    Obs.Trace.with_span ~cat:"io" ~args:[ ("detail", path) ] "io.load" body
  else body ()

let save path rels =
  let oc = open_out path in
  List.iter
    (fun r ->
      output_string oc (to_string r);
      output_char oc '\n')
    rels;
  close_out oc

(* RFC 4180: fields separated by commas, quoted fields may contain
   commas/newlines, doubled quotes escape a quote. Returns records of
   fields; empty trailing line ignored. *)
let csv_records input =
  let records = ref [] and fields = ref [] and buf = Buffer.create 32 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_record () =
    flush_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let n = String.length input in
  let rec plain i =
    if i >= n then (if Buffer.length buf > 0 || !fields <> [] then flush_record ())
    else
      match input.[i] with
      | ',' ->
          flush_field ();
          plain (i + 1)
      | '\n' ->
          flush_record ();
          plain (i + 1)
      | '\r' -> plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          plain (i + 1)
  and quoted i =
    if i >= n then fail 0 "unterminated quoted CSV field"
    else
      match input.[i] with
      | '"' when i + 1 < n && input.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
      | '"' -> plain (i + 1)
      | c ->
          Buffer.add_char buf c;
          quoted (i + 1)
  in
  plain 0;
  List.rev !records

let relation_of_csv schema input =
  match csv_records input with
  | [] -> fail 0 "empty CSV document"
  | header :: rows ->
      let expected_header =
        List.map Attr.name (Schema.attrs schema) @ [ "(sn,sp)" ]
      in
      if header <> expected_header then
        fail 1 "CSV header does not match the schema (expected %s)"
          (String.concat "," expected_header);
      List.fold_left
        (fun (r, lineno) fields ->
          let expected = Schema.arity schema + 1 in
          if List.length fields <> expected then
            fail lineno "expected %d fields, got %d" expected
              (List.length fields);
          List.iter
            (fun f ->
              if String.contains f '|' then
                fail lineno "CSV field contains '|', which the cell syntax reserves")
            fields;
          let row = String.concat "|" fields in
          let tuple =
            parse_row ~base_col:0 lineno schema row 0 (String.length row)
          in
          match Relation.add r tuple with
          | r -> (r, lineno + 1)
          | exception Relation.Duplicate_key _ -> fail lineno "duplicate key"
          | exception Relation.Relation_error m -> fail lineno "%s" m)
        (Relation.empty schema, 2)
        rows
      |> fst
