module Io = Erm.Io

let tol = Dst.Num.float_tolerance

(* What the linter keeps of a relation block from its header to the
   scan's Block item. *)
type block = {
  mutable names : string list;  (* declared attribute names *)
  mutable has_key : bool;
  mutable findings : int;  (* E003/E004 on its declarations *)
}

(* A focal element as the paper writes it: [~], a value, or a set. *)
let member frame (e : Dst.Evidence.entry) =
  if e.outside = [] && Dst.Domain.is_full_at frame e.mask 0 then "~"
  else
    Format.asprintf "%a" Dst.Vset.pp_compact
      (Dst.Vset.union
         (Dst.Domain.vset_at frame e.mask 0)
         (Dst.Vset.of_list e.outside))

let same_member frame (a : Dst.Evidence.entry) (b : Dst.Evidence.entry) =
  Dst.Domain.compare_at (Dst.Domain.words frame) a.mask 0 b.mask 0 = 0
  && Dst.Vset.equal (Dst.Vset.of_list a.outside) (Dst.Vset.of_list b.outside)

let lint_string ?file input =
  let diags = ref [] in
  let count = ref 0 in
  let error ~line ?(col = 0) ~code fmt =
    Format.kasprintf
      (fun m ->
        incr count;
        diags := Diagnostic.error ?file ~line ~col ~code "%s" m :: !diags)
      fmt
  in
  let warning ~line ?(col = 0) ~code fmt =
    Format.kasprintf
      (fun m ->
        diags := Diagnostic.warning ?file ~line ~col ~code "%s" m :: !diags)
      fmt
  in
  (* A scan error, with the loader's own position and message. *)
  let scan_error code (e : Io.error) =
    error ~line:e.line ~col:e.col ~code "%s" e.message
  in
  (* A field's parse error. Key, Domain and Declaration errors in a row
     repeat a finding already made on the block's declarations. *)
  let field_error (e : Io.error) =
    match e.kind with
    | Io.Definite -> scan_error "E007" e
    | Io.Evidence -> scan_error "E008" e
    | Io.Membership -> scan_error "E014" e
    | Io.Declaration | Io.Domain | Io.Arity | Io.Key | Io.Schema -> ()
  in

  (* --- evidence cells: checks over the entries as written ------------- *)
  let evidence ~line ~col frame entries (mass : Dst.Evidence.t Io.parsed) =
    let seen = ref [] in
    List.iter
      (fun (e : Dst.Evidence.entry) ->
        if e.mass = 0.0 then
          warning ~line ~col ~code:"E019"
            "zero mass on %s (the loader drops it)" (member frame e);
        if List.exists (same_member frame e) !seen then
          warning ~line ~col ~code:"E020"
            "duplicate focal element %s (the loader sums its masses)"
            (member frame e)
        else seen := e :: !seen)
      entries;
    (* The loader's verdict decides whether the cell is an error; the
       entries say which. *)
    match mass with
    | Ok _ -> ()
    | Error err ->
        let before = !count and total = ref 0.0 in
        List.iter
          (fun (e : Dst.Evidence.entry) ->
            if Dst.Evidence.is_empty e then
              error ~line ~col ~code:"E010" "mass %g assigned to the empty set"
                e.mass;
            if e.outside <> [] then
              error ~line ~col ~code:"E012"
                "value(s) %s lie outside the declared domain"
                (String.concat ", "
                   (List.map Dst.Value.to_string
                      (Dst.Vset.to_list (Dst.Vset.of_list e.outside))));
            if e.mass < 0.0 then
              error ~line ~col ~code:"E011" "negative mass %g" e.mass
            else if e.mass > 1.0 +. tol then
              error ~line ~col ~code:"E011" "mass %g exceeds 1" e.mass;
            total := !total +. e.mass)
          entries;
        if Float.abs (!total -. 1.0) > tol then
          error ~line ~col ~code:"E009"
            "masses sum to %.12g, not 1 (beyond the %.0e tolerance)" !total tol;
        if !count = before then scan_error "E099" err
  in

  (* --- rows ------------------------------------------------------------ *)
  (* Every fully parsed key: block line, block name, values, row line and
     column. Duplicates are found by sorting once at the end. *)
  let keys = ref [] in
  let block_line = ref 0 and block_name = ref "" in
  let row (r : Io.row) =
    let line = r.line in
    let values =
      List.filter_map
        (function
          | Ok v -> Some v
          | Error e ->
              field_error e;
              None)
        r.key
    in
    if values <> [] && List.length values = List.length r.key then
      keys := (!block_line, !block_name, values, line, r.col) :: !keys;
    List.iter
      (function
        | Error e -> field_error e
        | Ok (Io.Value _) -> ()
        | Ok (Io.Evidence { col; frame; entries; mass }) ->
            evidence ~line ~col frame entries mass)
      r.cells;
    match r.tm with
    | Error e -> field_error e
    | Ok { col; sn; sp; support = Error _ } ->
        error ~line ~col ~code:"E015"
          "membership (%g, %g) violates 0 ≤ sn ≤ sp ≤ 1" sn sp
    | Ok { col; sn; sp; support = Ok s } ->
        if not (Dst.Support.positive s) then
          error ~line ~col ~code:"E016"
            "membership (%g, %g) is inadmissible under CWA_ER: stored \
             tuples need sn > 0"
            sn sp
  in

  (* --- the fold -------------------------------------------------------- *)
  let blocks = Hashtbl.create 8 in
  let current = ref None in
  let relations = ref [] in
  let decl (d : Io.decl) b =
    let line = d.line and col = d.col in
    (match d.attr with
    | Error e ->
        scan_error (if e.kind = Io.Declaration then "E001" else "E005") e
    | Ok a ->
        if d.key && Erm.Attr.is_evidential a then begin
          b.findings <- b.findings + 1;
          error ~line ~col ~code:"E003" "key attribute %s must be definite"
            d.name
        end);
    if d.name <> "" then begin
      if List.mem d.name b.names then begin
        b.findings <- b.findings + 1;
        error ~line ~col ~code:"E004" "duplicate attribute name %s" d.name
      end
      else b.names <- d.name :: b.names;
      if d.key then b.has_key <- true
    end
  in
  Io.scan input
    (fun () item ->
      match item with
      | Io.Directive_error e -> scan_error "E001" e
      | Io.Header { line; col; name } ->
          if List.mem name !relations then
            warning ~line ~col ~code:"E002" "duplicate relation name %s" name
          else relations := name :: !relations;
          let b = { names = []; has_key = false; findings = 0 } in
          Hashtbl.replace blocks line b;
          current := Some b
      | Io.Decl d -> Option.iter (decl d) !current
      | Io.Block { line; name; schema } ->
          let b = Hashtbl.find blocks line in
          if not b.has_key then begin
            b.findings <- b.findings + 1;
            error ~line ~code:"E003" "relation %s has an empty key" name
          end;
          (match schema with
          | Error ({ kind = Io.Schema; _ } as e) when b.findings = 0 ->
              scan_error "E099" e
          | Ok _ | Error _ -> ());
          block_line := line;
          block_name := name
      | Io.Row (Error e) -> scan_error "E006" e
      | Io.Row (Ok r) -> row r)
    ();

  (* Key uniqueness in key order, on parsed values (the loader's
     comparison, so 353 and "353" collide exactly when load says they
     do). Each later row of an equal run is a duplicate. *)
  let compare_key (b1, _, k1, _, _) (b2, _, k2, _, _) =
    match Int.compare b1 b2 with
    | 0 -> List.compare Dst.Value.compare k1 k2
    | c -> c
  in
  let rec duplicates = function
    | a :: ((_, name, k, line, col) as b) :: rest ->
        if compare_key a b = 0 then
          error ~line ~col ~code:"E013" "duplicate key (%s) in relation %s"
            (String.concat ", " (List.map Dst.Value.to_string k))
            name;
        duplicates (b :: rest)
    | _ -> ()
  in
  duplicates
    (List.sort
       (fun ((_, _, _, l1, _) as a) ((_, _, _, l2, _) as b) ->
         match compare_key a b with 0 -> Int.compare l1 l2 | c -> c)
       !keys);
  List.sort Diagnostic.compare !diags

let lint_file path =
  match
    let ic = open_in path in
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    content
  with
  | content -> lint_string ~file:path content
  | exception Sys_error m ->
      [ Diagnostic.error ~file:path ~code:"E017" "cannot read file: %s" m ]
