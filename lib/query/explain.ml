type node = {
  op : string;
  detail : string;
  rows_min : float;
  rows_max : float;
  children : node list;
}

let fail fmt = Format.kasprintf (fun s -> raise (Eval.Eval_error s)) fmt

let rec explain env = function
  | Ast.Rel name -> (
      match List.assoc_opt name env with
      | Some r ->
          let n = float_of_int (Erm.Relation.cardinal r) in
          { op = "scan"; detail = name; rows_min = n; rows_max = n;
            children = [] }
      | None -> fail "unknown relation %s" name)
  | Ast.Select { cols; from; where; threshold } ->
      let child = explain env from in
      let detail =
        String.concat ""
          [ (match where with
            | Ast.True -> "all"
            | p -> Format.asprintf "%a" Ast.pp_pred p);
            (match threshold with
            | Erm.Threshold.Always -> ""
            | t -> Format.asprintf " WITH %a" Erm.Threshold.pp t);
            (match cols with
            | None -> ""
            | Some cs -> " -> " ^ String.concat ", " cs) ]
      in
      (* Evidential selectivity is unknowable without evaluating; a
         selection keeps between none and all of its input. *)
      { op = "select"; detail; rows_min = 0.0; rows_max = child.rows_max;
        children = [ child ] }
  | Ast.Union (a, b) ->
      let ca = explain env a and cb = explain env b in
      { op = "union";
        detail = "dempster merge on key overlap";
        rows_min = Float.max ca.rows_min cb.rows_min;
        rows_max = ca.rows_max +. cb.rows_max;
        children = [ ca; cb ] }
  | Ast.Intersect (a, b) ->
      let ca = explain env a and cb = explain env b in
      { op = "intersect";
        detail = "key-matched dempster merge";
        rows_min = 0.0;
        rows_max = Float.min ca.rows_max cb.rows_max;
        children = [ ca; cb ] }
  | Ast.Except (a, b) ->
      let ca = explain env a and cb = explain env b in
      { op = "except"; detail = "key difference";
        rows_min = Float.max 0.0 (ca.rows_min -. cb.rows_max);
        rows_max = ca.rows_max;
        children = [ ca; cb ] }
  | Ast.Product (a, b) ->
      let ca = explain env a and cb = explain env b in
      { op = "product"; detail = "";
        rows_min = ca.rows_min *. cb.rows_min;
        rows_max = ca.rows_max *. cb.rows_max;
        children = [ ca; cb ] }
  | Ast.Join { left; right; on; threshold } ->
      let ca = explain env left and cb = explain env right in
      let detail =
        Format.asprintf "%a%s" Ast.pp_pred on
          (match threshold with
          | Erm.Threshold.Always -> ""
          | t -> Format.asprintf " WITH %a" Erm.Threshold.pp t)
      in
      { op = "join"; detail; rows_min = 0.0;
        rows_max = ca.rows_max *. cb.rows_max;
        children = [ ca; cb ] }
  | Ast.Prefixed { from; prefix } ->
      let child = explain env from in
      { op = "prefix"; detail = prefix; rows_min = child.rows_min;
        rows_max = child.rows_max; children = [ child ] }
  | Ast.Ranked { from; by; ascending; limit } ->
      let child = explain env from in
      let cap x =
        match limit with Some k -> Float.min x (float_of_int k) | None -> x
      in
      { op = "rank";
        detail =
          Format.asprintf "by %s %s%s"
            (match by with Erm.Threshold.Sn -> "sn" | Erm.Threshold.Sp -> "sp")
            (if ascending then "asc" else "desc")
            (match limit with
            | Some k -> Printf.sprintf " limit %d" k
            | None -> "");
        rows_min = cap child.rows_min;
        rows_max = cap child.rows_max;
        children = [ child ] }

let explain_optimized env q = explain env (Plan.optimize env q)

let rec pp_indented indent ppf n =
  Format.fprintf ppf "%s%s%s rows=[%g, %g]" indent n.op
    (if n.detail = "" then "" else " [" ^ n.detail ^ "]")
    n.rows_min n.rows_max;
  List.iter
    (fun child ->
      Format.pp_print_newline ppf ();
      pp_indented (indent ^ "  ") ppf child)
    n.children

let pp ppf n = pp_indented "" ppf n
let to_string n = Format.asprintf "%a" pp n

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: run the physical plan, report measured stats.      *)

let analyze ?ctx ?sharded env q =
  let p = Physical.plan_optimized env q in
  Physical.execute_measured ?ctx ?sharded env p

let rec pp_report_indented indent ppf (r : Physical.report) =
  Format.fprintf ppf "%s%s%s %s" indent r.Physical.r_op
    (if r.Physical.r_detail = "" then ""
     else " [" ^ r.Physical.r_detail ^ "]")
    (Stats.to_string r.Physical.r_stats);
  List.iter
    (fun child ->
      Format.pp_print_newline ppf ();
      pp_report_indented (indent ^ "  ") ppf child)
    r.Physical.r_children

let pp_report ppf r = pp_report_indented "" ppf r
let report_to_string r = Format.asprintf "%a" pp_report r
