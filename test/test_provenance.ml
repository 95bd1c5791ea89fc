(* Lineage DAG invariants (qcheck + unit):

   - every derivation recorded during multi-source integration bottoms
     out in Source leaves — the stored tuples of the federated inputs;
   - the κ stored on a Dempster combination node equals
     Dst.Measures.conflict recomputed on the operands, bit-exactly;
   - a union-memo hit adds no nodes within one arena lifetime and,
     across arenas (warm memo, fresh store), the union is derived again
     with a lineage structurally identical to the cold derivation, for
     every rule policy; a hit never crosses policies;
   - the physical planner attaches the same evidence lineage as naive
     evaluation (value-digest keyed, so plan rewrites cannot hide);
   - the DOT and JSON exporters agree on node/edge counts and the DOT
     text is structurally well-formed (checked without a dot binary).

   Seeds: qcheck honours QCHECK_SEED, which CI pins. *)

module M = Dst.Mass.F
module P = Obs.Provenance
module W = Obs.Why
module R = Workload.Rng
module G = Workload.Gen
module Q = Workload.Qgen

let prop ?(count = 150) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let seed_arb = QCheck.int_range 0 1_000_000
let dom8 = G.domain ~size:8 "d"

let gen_evidence seed =
  G.evidence (R.create seed) ~focals:4 ~max_focal_size:3 dom8

let schema = G.schema "prov"

(* The hooks consult the process-wide default store, so properties flip
   it — and restore it whatever happens. *)
let with_provenance f =
  P.reset ();
  P.enable ();
  Fun.protect
    ~finally:(fun () ->
      P.disable ();
      P.reset ())
    f

(* --- leaves are sources ---------------------------------------------- *)

let derivation_roots t =
  (match P.find (Erm.Lineage.tm_digest t) with
  | Some id -> [ id ]
  | None -> [])
  @ List.filter_map
      (function
        | Erm.Etuple.Evidence e -> P.find (M.digest e)
        | Erm.Etuple.Definite _ -> None)
      (Erm.Etuple.cells t)

let all_leaves_are_sources id =
  List.for_all (fun (n : P.node) -> n.P.kind = P.Source) (P.leaves id)

let leaf_props =
  [ prop "integration lineage bottoms out in stored source tuples"
      ~count:75 seed_arb
      (fun s ->
        with_provenance (fun () ->
          let ra, rb =
            G.source_pair (R.create s) ~size:10 ~overlap:0.6 schema
          in
          let rc = G.reobserve (R.create (s + 17)) ra in
          let report =
            Integration.Multi.integrate
              [ { Integration.Multi.source_name = "ra";
                  source_relation = ra };
                { Integration.Multi.source_name = "rb";
                  source_relation = rb };
                { Integration.Multi.source_name = "rc";
                  source_relation = rc } ]
          in
          Erm.Relation.tuples report.Integration.Multi.integrated
          |> List.for_all (fun t ->
                 let roots = derivation_roots t in
                 roots <> [] && List.for_all all_leaves_are_sources roots)))
  ]

(* --- recorded kappa -------------------------------------------------- *)

let kappa_props =
  [ prop "recorded kappa equals Measures.conflict recomputed" seed_arb
      (fun s ->
        with_provenance (fun () ->
          let a = gen_evidence s and b = gen_evidence (s + 1) in
          match M.combine_opt a b with
          | None -> true
          | Some (_, k) ->
              (* record_combine appends the Combine node last *)
              let n = P.node (P.count () - 1) in
              n.P.kind = P.Combine
              && n.P.kappa = Some k
              && Float.equal k (Dst.Measures.conflict a b))) ]

(* --- evidence lineage of a result ------------------------------------ *)

module Smap = Map.Make (String)

let evidence_lineage r =
  Erm.Relation.tuples r
  |> List.fold_left
       (fun acc t ->
         List.fold_left
           (fun acc c ->
             match c with
             | Erm.Etuple.Evidence e -> (
                 let d = M.digest e in
                 match P.find d with
                 | Some id -> Smap.add d (W.tree id) acc
                 | None -> acc)
             | Erm.Etuple.Definite _ -> acc)
           acc (Erm.Etuple.cells t))
       Smap.empty

(* --- union-memo lineage ----------------------------------------------- *)

let union_env s =
  let ra, rb = G.source_pair (R.create s) ~size:10 ~overlap:0.6 schema in
  [ ("ra", ra); ("rb", rb) ]

(* [ra UNION rb] on [ctx]: the result, and whether the memo served it. *)
let run_union ctx env =
  let plan = Query.Physical.plan_optimized env
      (Query.Ast.Union (Query.Ast.Rel "ra", Query.Ast.Rel "rb")) in
  let out, rep = Query.Physical.execute_measured ~ctx env plan in
  (out, rep.Query.Physical.r_stats.Query.Stats.cache_hits = 1)

let cache_props =
  [ prop "within one arena a cache hit adds nothing and keeps the node"
      seed_arb
      (fun s ->
        with_provenance (fun () ->
          let env = union_env s and ctx = Query.Physical.create_ctx () in
          let r1, hit1 = run_union ctx env in
          let l1 = evidence_lineage r1 in
          let before = P.count () in
          let r2, hit2 = run_union ctx env in
          (not hit1) && hit2 && r2 == r1
          && P.count () = before
          && (not (Smap.is_empty l1))
          && Smap.equal W.equal l1 (evidence_lineage r2)));
    prop "warm-cache lineage is identical to the cold derivation" seed_arb
      (fun s ->
        let env = union_env s and ctx = Query.Physical.create_ctx () in
        let leg () =
          with_provenance (fun () ->
            let r, hit = run_union ctx env in
            (evidence_lineage r, hit))
        in
        let cold, _ = leg () in
        (* same union again: the memo is warm but the arena is fresh, so
           the union is derived again *)
        let warm, hit = leg () in
        (not hit) && (not (Smap.is_empty cold)) && Smap.equal W.equal cold warm)
  ]

(* --- policy-keyed memo ----------------------------------------------- *)

(* The memo key includes Rule.policy_key: the same operands under a
   different rule or κ-threshold are a different entry, never a
   cross-rule hit — and for every policy the lineage after an arena
   reset must be indistinguishable from the cold derivation. *)

let policies_under_test =
  List.map Dst.Rule.make
    (Dst.Rule.all
    @ [ Dst.Rule.discount_then_combine 0.9;
        Dst.Rule.discount_then_combine 0.5 ])
  @ [ Dst.Rule.make
        ~escalation:
          (Dst.Rule.escalate ~kappa0:0.0 (Dst.Rule.Fallback Dst.Rule.Yager))
        Dst.Rule.Dempster ]

let rule_cache_props =
  [ prop "a hit never crosses policies; within one it always hits"
      seed_arb
      (fun s ->
        let env = union_env s and ctx = Query.Physical.create_ctx () in
        let ra = List.assoc "ra" env and rb = List.assoc "rb" env in
        (* The session rule switches between runs on one context: each
           policy's first run misses although the operands are memoized
           under every earlier policy; its second run, and a second pass
           over all policies, hit that policy's own result. *)
        let first =
          List.map
            (fun policy ->
              Dst.Rule.with_policy policy (fun () ->
                  let r1, hit1 = run_union ctx env in
                  let r2, hit2 = run_union ctx env in
                  ( r1,
                    (not hit1) && hit2 && r2 == r1
                    && Erm.Relation.equal r1 (Erm.Ops.union ~policy ra rb) )))
            policies_under_test
        in
        List.for_all snd first
        && List.for_all2
             (fun policy (r1, _) ->
               Dst.Rule.with_policy policy (fun () ->
                   let r, hit = run_union ctx env in
                   hit && r == r1))
             policies_under_test first);
    prop "warm-hit lineage = cold derivation for every policy" ~count:50
      seed_arb
      (fun s ->
        let env = union_env s in
        List.for_all
          (fun policy ->
            let ctx = Query.Physical.create_ctx () in
            let leg () =
              with_provenance (fun () ->
                Dst.Rule.with_policy policy (fun () ->
                    evidence_lineage (fst (run_union ctx env))))
            in
            let cold = leg () in
            (* warm memo, fresh arena: the union is derived again *)
            let warm = leg () in
            (not (Smap.is_empty cold)) && Smap.equal W.equal cold warm)
          policies_under_test) ]

(* --- plan invariance ------------------------------------------------- *)

let ctx = Query.Physical.create_ctx ()

let plan_props =
  [ prop "physical evidence lineage = naive evidence lineage" ~count:100
      seed_arb
      (fun s ->
        let env = Q.env (R.create s) () in
        let q = Q.query (R.create (s + 7919)) env in
        let naive =
          with_provenance (fun () ->
            evidence_lineage (Query.Eval.eval env q))
        in
        let physical =
          with_provenance (fun () ->
            evidence_lineage (Query.Physical.eval_fast ~ctx env q))
        in
        Smap.equal W.equal naive physical) ]

(* --- exporter agreement ---------------------------------------------- *)

let count_substr hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.equal (String.sub hay i nn) needle then
      go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let record_fixture () =
  let ra, rb = G.source_pair (R.create 42) ~size:8 ~overlap:0.5 schema in
  Erm.Lineage.register_relation ~name:"ra" ra;
  Erm.Lineage.register_relation ~name:"rb" rb;
  ignore (Erm.Ops.union ra rb)

let test_export_counts () =
  with_provenance (fun () ->
    record_fixture ();
    let nodes = P.count () in
    let edges =
      List.fold_left
        (fun acc (n : P.node) -> acc + Array.length n.P.inputs)
        0 (P.nodes ())
    in
    Alcotest.(check bool) "fixture recorded nodes" true (nodes > 0);
    Alcotest.(check bool) "fixture recorded edges" true (edges > 0);
    let json = Obs.Export.provenance_json () in
    let dot = Obs.Export.provenance_dot () in
    Alcotest.(check int) "json node count" nodes
      (count_substr json "\"kind\":");
    let json_edges =
      (* "edges":[[0,2],[1,2]]: one inner '[' per edge *)
      match String.index_opt json ']' with
      | _ -> (
          let marker = "\"edges\":" in
          match count_substr json marker with
          | 1 ->
              let at =
                let rec find i =
                  if
                    String.equal
                      (String.sub json i (String.length marker))
                      marker
                  then i
                  else find (i + 1)
                in
                find 0
              in
              let tail =
                String.sub json at (String.length json - at)
              in
              count_substr tail "[" - 1
          | _ -> -1)
    in
    Alcotest.(check int) "json edge count" edges json_edges;
    Alcotest.(check int) "dot node count" nodes (count_substr dot "[shape=");
    Alcotest.(check int) "dot edge count" edges (count_substr dot " -> "))

let test_dot_structure () =
  with_provenance (fun () ->
    record_fixture ();
    let dot = Obs.Export.provenance_dot () in
    let lines =
      String.split_on_char '\n' dot |> List.filter (fun l -> l <> "")
    in
    (match lines with
    | first :: _ ->
        Alcotest.(check string) "header" "digraph provenance {" first
    | [] -> Alcotest.fail "empty dot");
    Alcotest.(check string) "closes" "}" (List.nth lines (List.length lines - 1));
    let declared = Hashtbl.create 64 in
    List.iter
      (fun line ->
        if starts_with "  n" line && count_substr line "[shape=" = 1 then
          let name =
            String.sub line 2 (String.index_from line 2 ' ' - 2)
          in
          Hashtbl.replace declared name ())
      lines;
    let undeclared_endpoint =
      List.exists
        (fun line ->
          match count_substr line " -> " with
          | 1 ->
              let line = String.trim line in
              let line =
                (* drop trailing ";" *)
                if String.length line > 0 && line.[String.length line - 1] = ';'
                then String.sub line 0 (String.length line - 1)
                else line
              in
              (match String.split_on_char ' ' line with
              | [ a; "->"; b ] ->
                  not (Hashtbl.mem declared a && Hashtbl.mem declared b)
              | _ -> true)
          | _ -> false)
        lines
    in
    Alcotest.(check bool) "every edge endpoint is declared" false
      undeclared_endpoint)

let unit_tests =
  [ Alcotest.test_case "DOT and JSON exporters agree on counts" `Quick
      test_export_counts;
    Alcotest.test_case "DOT output is structurally well-formed" `Quick
      test_dot_structure ]

let () =
  Alcotest.run "provenance"
    [ ("leaves", leaf_props);
      ("kappa", kappa_props);
      ("cache", cache_props);
      ("rule-cache", rule_cache_props);
      ("plans", plan_props);
      ("export", unit_tests) ]
