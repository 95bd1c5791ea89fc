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
  let member () =
    match next () with
    | Omega -> Domain.values frame
    | Lit s -> Vset.singleton (literal s)
    | Lbrace ->
        let rec elems acc =
          match next () with
          | Lit s -> (
              match next () with
              | Comma -> elems (literal s :: acc)
              | Rbrace -> Vset.of_list (literal s :: acc)
              | _ -> fail "malformed set {…}")
          | Rbrace when acc <> [] -> Vset.of_list acc
          | _ -> fail "malformed set {…}"
        in
        elems []
    | _ -> fail "expected a focal element"
  in
  let rec focals acc =
    let set = member () in
    let mass =
      match next () with
      | Caret -> (
          match next () with
          | Eof -> fail "expected ^mass after focal element"
          | tok -> parse_mass fail tok)
      | _ -> fail "expected ^mass after focal element"
    in
    let acc = (set, mass) :: acc in
    match next () with
    | Semi -> focals acc
    | Rbracket -> (
        match next () with
        | Eof -> List.rev acc
        | _ -> fail "trailing input after ]")
    | _ -> fail "expected ; or ]"
  in
  match next () with
  | Lbracket -> Mass.F.make frame (focals [])
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
