type t = { file : string option; line : int; col : int; message : string }

let classify e =
  let msg fmt =
    Format.kasprintf
      (fun message -> Some { file = None; line = 0; col = 0; message })
      fmt
  in
  match e with
  | Sys_error m -> msg "%s" m
  | Unix.Unix_error (err, fn, arg) ->
      let file = Some (if arg = "" then fn else arg) in
      Some { file; line = 0; col = 0; message = Unix.error_message err }
  | Erm.Io.Io_error { file; line; col; message } ->
      Some { file; line; col; message }
  | Query.Parser.Parse_error m -> msg "parse error: %s" m
  | Query.Eval.Eval_error m
  | Erm.Ops.Incompatible_schemas m
  | Erm.Etuple.Tuple_error m
  | Erm.Relation.Relation_error m
  | Erm.Schema.Schema_error m ->
      msg "%s" m
  | Erm.Relation.Duplicate_key key ->
      msg "duplicate key (%s)"
        (String.concat ", " (List.map Dst.Value.to_string key))
  | Dst.Mass.F.Total_conflict ->
      msg "total conflict (kappa = 1) while combining evidence"
  | Dst.Mass.F.Invalid_mass m -> msg "invalid mass function: %s" m
  | Dst.Mass.F.Quarantined_cell kappa ->
      msg "combination quarantined (kappa = %g)" kappa
  | Dst.Mass.F.Frame_mismatch (a, b) ->
      msg "frame mismatch: %s vs %s" (Dst.Domain.to_string a)
        (Dst.Domain.to_string b)
  | Store.Recovery.Store_error err ->
      msg "%s" (Store.Recovery.error_to_string err)
  | Store.Io.Fault { op; path; code } ->
      msg "store i/o fault: %s(%s): %s" op path (Store.Io.code_to_string code)
  | _ -> None

let to_string { file; line; col; message } =
  Format.asprintf "%t%s" (Diagnostic.pp_position ~file ~line ~col) message

let handle on_failure f =
  try f ()
  with e -> (
    let bt = Printexc.get_raw_backtrace () in
    match classify e with
    | Some t -> on_failure t
    | None -> Printexc.raise_with_backtrace e bt)
