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

(* The scanning loops are top-level functions: a local recursive
   function over [input] would allocate a closure on every token. *)
let rec skip_space input i =
  if i < String.length input && is_space input.[i] then skip_space input (i + 1)
  else i

let rec literal_end input j =
  if j < String.length input && not (ends_literal input.[j]) then
    literal_end input (j + 1)
  else j

(* The closing quote of a quoted string literal, honouring backslash
   escapes. *)
let rec quote_end input j =
  if j >= String.length input then
    raise (Parse_error (input, "unterminated string literal"))
  else if input.[j] = '\\' then quote_end input (j + 2)
  else if input.[j] = '"' then j
  else quote_end input (j + 1)

(* The token at or after [!pos]; moves [pos] past it. *)
let next input pos =
  let i = skip_space input !pos in
  if i >= String.length input then (
    pos := String.length input;
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
        let j = quote_end input (i + 1) in
        pos := j + 1;
        Lit (String.sub input i (j - i + 1))
    | _ ->
        let j = literal_end input i in
        pos := j;
        Lit (String.sub input i (j - i)))

(* ------------------------------------------------------------------ *)
(* Recursive-descent parser.                                           *)

type entry = { mask : Domain.mask; outside : Value.t list; mass : float }

let malformed_set = "malformed set {…}"
let rec empty_from mask i =
  i = Array.length mask || (mask.(i) = 0 && empty_from mask (i + 1))

let is_empty e = e.outside = [] && empty_from e.mask 0

let parse frame input =
  let pos = ref 0 in
  let next () = next input pos in
  (* [{}] is an entry, but the first error after it is reported as
     [{}]'s own. *)
  let empty_seen = ref false in
  (* An unterminated string literal anywhere in the input is the error
     reported, ahead of any syntax or literal error before it: the rest
     of the input is lexed before either is raised. *)
  let rec drain () = match next () with Eof -> () | _ -> drain () in
  let fail msg =
    drain ();
    raise (Parse_error (input, if !empty_seen then malformed_set else msg))
  in
  let literal s =
    match Value.of_literal s with
    | v -> v
    | exception Invalid_argument m -> fail m
  in
  (* Each member's mask is set bit by bit from the parsed values; a value
     outside the frame is kept aside. *)
  let add_value mask outside v =
    let i = Domain.index frame v in
    if i >= 0 then (
      Domain.add_bit mask i;
      outside)
    else v :: outside
  in
  let member () =
    match next () with
    | Omega -> (Domain.full_mask frame, [])
    | Lit s ->
        let mask = Domain.empty_mask frame in
        (mask, add_value mask [] (literal s))
    | Lbrace ->
        let mask = Domain.empty_mask frame in
        let rec elems outside any =
          match next () with
          | Lit s -> (
              match next () with
              | Comma -> elems (add_value mask outside (literal s)) true
              | Rbrace -> add_value mask outside (literal s)
              | _ -> fail malformed_set)
          | Rbrace when any -> outside
          | Rbrace ->
              empty_seen := true;
              outside
          | _ -> fail malformed_set
        in
        (mask, List.rev (elems [] false))
    | _ -> fail "expected a focal element"
  in
  let mass tok =
    match tok with
    | Lit s -> (
        match Num.float_of_literal s with
        | Some x -> x
        | None ->
            fail
              ((if String.contains s '/' then "malformed fraction "
                else "expected a mass, got ")
              ^ s))
    | _ -> fail "expected a mass value"
  in
  let rec focals acc =
    let mask, outside = member () in
    let mass =
      match next () with
      | Caret -> (
          match next () with
          | Eof -> fail "expected ^mass after focal element"
          | tok -> mass tok)
      | _ -> fail "expected ^mass after focal element"
    in
    let acc = { mask; outside; mass } :: acc in
    match next () with
    | Semi -> focals acc
    | Rbracket -> (
        match next () with
        | Eof -> List.rev acc
        | _ -> fail "trailing input after ]")
    | _ -> fail "expected ; or ]"
  in
  match
    match next () with
    | Lbracket -> focals []
    | _ -> fail "expected ["
  with
  | entries -> Ok entries
  | exception Parse_error (_, m) -> Error m

(* A value outside the frame sends the entries to [Mass.F.make] as value
   sets, so that the error names the whole focal set and an earlier
   entry's error still comes first. *)
let of_entries frame entries =
  if List.exists is_empty entries then raise (Parse_error ("{}", malformed_set))
  else if List.exists (fun e -> e.outside <> []) entries then
    Mass.F.make frame
      (List.map
         (fun e ->
           let inside = Domain.vset_at frame e.mask 0 in
           (Vset.union inside (Vset.of_list e.outside), e.mass))
         entries)
  else Mass.F.make_masks frame (List.map (fun e -> (e.mask, e.mass)) entries)

let of_string frame input =
  match parse frame input with
  | Ok entries -> of_entries frame entries
  | Error m -> raise (Parse_error (input, m))

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
