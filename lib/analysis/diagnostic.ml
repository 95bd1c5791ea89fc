type severity = Info | Warning | Error

type t = {
  severity : severity;
  code : string;
  file : string option;
  line : int;
  col : int;
  message : string;
}

let make severity ?file ?(line = 0) ?(col = 0) ~code fmt =
  Format.kasprintf
    (fun message -> { severity; code; file; line; col; message })
    fmt

let error ?file ?line ?col ~code fmt = make Error ?file ?line ?col ~code fmt

let warning ?file ?line ?col ~code fmt =
  make Warning ?file ?line ?col ~code fmt

let info ?file ?line ?col ~code fmt = make Info ?file ?line ?col ~code fmt

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

let compare a b =
  let c = Option.compare String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = Int.compare (severity_rank b.severity) (severity_rank a.severity) in
        if c <> 0 then c
        else
          let c = String.compare a.code b.code in
          if c <> 0 then c else String.compare a.message b.message

let is_error d = d.severity = Error

let max_severity = function
  | [] -> None
  | ds ->
      Some
        (List.fold_left
           (fun acc d ->
             if severity_rank d.severity > severity_rank acc then d.severity
             else acc)
           Info ds)

let pp_position ~file ~line ~col ppf =
  let parts =
    Option.to_list file
    @
    if line <= 0 then []
    else string_of_int line :: (if col > 0 then [ string_of_int col ] else [])
  in
  if parts <> [] then Format.fprintf ppf "%s: " (String.concat ":" parts)

let pp ppf d =
  Format.fprintf ppf "%t%s[%s]: %s"
    (pp_position ~file:d.file ~line:d.line ~col:d.col)
    (severity_to_string d.severity) d.code d.message

let to_string d = Format.asprintf "%a" pp d

(* Minimal JSON string escaping: quotes, backslashes and control
   characters — everything the diagnostic messages can contain. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ?priority d =
  Printf.sprintf
    {|{"severity": "%s", %s"code": "%s", "file": %s, "line": %d, "col": %d, "message": "%s"}|}
    (severity_to_string d.severity)
    (match priority with
    | Some p -> Printf.sprintf {|"priority": "%s", |} (json_escape p)
    | None -> "")
    (json_escape d.code)
    (match d.file with
    | Some f -> "\"" ^ json_escape f ^ "\""
    | None -> "null")
    d.line d.col (json_escape d.message)
