(* Extensions beyond the paper's operator set: difference/intersection,
   ranking (and the query language's ORDER BY/LIMIT), summaries, and
   reliability-discounted merging. *)

module V = Dst.Value
module Vs = Dst.Vset
module D = Dst.Domain
module M = Dst.Mass.F
module S = Dst.Support

let feq = Alcotest.float 1e-9

let colors = D.of_strings "color" [ "red"; "green"; "blue" ]

let schema =
  Erm.Schema.make ~name:"items"
    ~key:[ Erm.Attr.definite "id" "string" ]
    ~nonkey:
      [ Erm.Attr.definite "bin" "string";
        Erm.Attr.evidential "color" colors ]

let item ?(tm = S.certain) ?(bin = "b1") id color =
  Erm.Etuple.make schema
    ~key:[ V.string id ]
    ~cells:
      [ Erm.Etuple.Definite (V.string bin);
        Erm.Etuple.Evidence (Dst.Evidence.of_string colors color) ]
    ~tm

let left =
  Erm.Relation.of_tuples schema
    [ item ~tm:(S.make ~sn:0.9 ~sp:1.0) "x1" "[red^0.7; ~^0.3]";
      item ~tm:(S.make ~sn:0.4 ~sp:0.6) "x2" ~bin:"b2" "[green^1]";
      item "x3" "[blue^0.5; ~^0.5]" ]

let right =
  Erm.Relation.of_tuples schema
    [ item "x1" "[red^0.6; ~^0.4]";
      item ~tm:(S.make ~sn:0.7 ~sp:0.9) "x9" "[green^1]" ]

(* --- difference and intersection ------------------------------------- *)

let test_difference () =
  let d = Erm.Ops.difference left right in
  Alcotest.(check int) "x2 and x3 remain" 2 (Erm.Relation.cardinal d);
  Alcotest.(check bool) "x1 removed" false
    (Erm.Relation.mem d [ V.string "x1" ]);
  (* Tuples pass through unchanged. *)
  Alcotest.(check bool) "x2 untouched" true
    (Erm.Etuple.equal
       (Erm.Relation.find d [ V.string "x2" ])
       (Erm.Relation.find left [ V.string "x2" ]));
  Alcotest.(check int) "difference against empty is identity" 3
    (Erm.Relation.cardinal (Erm.Ops.difference left (Erm.Relation.empty schema)))

let test_intersection () =
  let i = Erm.Ops.intersection left right in
  Alcotest.(check int) "only x1 is corroborated" 1 (Erm.Relation.cardinal i);
  let x1 = Erm.Relation.find i [ V.string "x1" ] in
  (* Same Dempster merge as union's matched branch. *)
  let u = Erm.Ops.union left right in
  Alcotest.(check bool) "merged identically to union" true
    (Erm.Etuple.equal x1 (Erm.Relation.find u [ V.string "x1" ]))

let test_set_algebra_decomposition () =
  (* union = intersection ∪ (left \ right) ∪ (right \ left), disjointly. *)
  let u = Erm.Ops.union left right in
  let parts =
    Erm.Relation.cardinal (Erm.Ops.intersection left right)
    + Erm.Relation.cardinal (Erm.Ops.difference left right)
    + Erm.Relation.cardinal (Erm.Ops.difference right left)
  in
  Alcotest.(check int) "partition sizes add up" (Erm.Relation.cardinal u) parts

(* --- ranking ---------------------------------------------------------- *)

let test_rank_sorted () =
  let ids r = List.map (fun t -> V.to_string (List.hd (Erm.Etuple.key t))) r in
  Alcotest.(check (list string))
    "descending sn: x3 (1), x1 (0.9), x2 (0.4)"
    [ "x3"; "x1"; "x2" ]
    (ids (Erm.Rank.sorted left));
  Alcotest.(check (list string))
    "ascending flips"
    [ "x2"; "x1"; "x3" ]
    (ids (Erm.Rank.sorted ~ascending:true left))

let test_rank_top_bottom () =
  let top2 = Erm.Rank.top 2 left in
  Alcotest.(check int) "top 2" 2 (Erm.Relation.cardinal top2);
  Alcotest.(check bool) "keeps x3 and x1" true
    (Erm.Relation.mem top2 [ V.string "x3" ]
    && Erm.Relation.mem top2 [ V.string "x1" ]);
  let bottom1 = Erm.Rank.bottom 1 left in
  Alcotest.(check bool) "bottom is x2" true
    (Erm.Relation.mem bottom1 [ V.string "x2" ]);
  Alcotest.(check int) "oversized k is fine" 3
    (Erm.Relation.cardinal (Erm.Rank.top 10 left));
  Alcotest.(check int) "k = 0" 0 (Erm.Relation.cardinal (Erm.Rank.top 0 left))

let test_rank_best_and_range () =
  (match Erm.Rank.best left with
  | Some t ->
      Alcotest.(check string) "best is x3" "x3"
        (V.to_string (List.hd (Erm.Etuple.key t)))
  | None -> Alcotest.fail "best on non-empty");
  (match Erm.Rank.membership_range left with
  | Some (weakest, strongest) ->
      Alcotest.check feq "weakest sn" 0.4 (S.sn weakest);
      Alcotest.check feq "strongest sn" 1.0 (S.sn strongest)
  | None -> Alcotest.fail "range on non-empty");
  Alcotest.(check bool) "best on empty" true
    (Erm.Rank.best (Erm.Relation.empty schema) = None)

let test_query_order_by_limit () =
  let env = [ ("items", left) ] in
  let top2 = Query.Eval.run env "items ORDER BY SN DESC LIMIT 2" in
  Alcotest.(check int) "limit 2" 2 (Erm.Relation.cardinal top2);
  Alcotest.(check bool) "keeps the most certain" true
    (Erm.Relation.mem top2 [ V.string "x3" ]);
  let worst = Query.Eval.run env "items ORDER BY SN ASC LIMIT 1" in
  Alcotest.(check bool) "ascending keeps the weakest" true
    (Erm.Relation.mem worst [ V.string "x2" ]);
  let bare_limit = Query.Eval.run env "items LIMIT 1" in
  Alcotest.(check int) "bare LIMIT defaults to best-by-sn" 1
    (Erm.Relation.cardinal bare_limit);
  let no_limit = Query.Eval.run env "items ORDER BY SP DESC" in
  Alcotest.(check int) "ORDER BY without LIMIT is the identity" 3
    (Erm.Relation.cardinal no_limit);
  let combined =
    Query.Eval.run env
      "SELECT id, color FROM items WHERE color IS {red, green} ORDER BY SN \
       DESC LIMIT 1"
  in
  Alcotest.(check bool) "composes with selection" true
    (Erm.Relation.mem combined [ V.string "x1" ])

let test_query_order_by_optimizer () =
  let env = [ ("items", left) ] in
  let q = Query.Parser.parse "(SELECT * FROM items) ORDER BY SN DESC" in
  (* ORDER BY without LIMIT disappears; the trivial select too. *)
  (match Query.Plan.optimize env q with
  | Query.Ast.Rel "items" -> ()
  | q' -> Alcotest.failf "expected plain items, got %s" (Query.Ast.to_string q'));
  let q2 = Query.Parser.parse "items ORDER BY SN DESC LIMIT 2" in
  Alcotest.(check bool) "optimize preserves ranked results" true
    (Erm.Relation.equal (Query.Eval.eval env q2)
       (Query.Plan.eval_optimized env q2))

(* --- summaries -------------------------------------------------------- *)

let test_cardinality_interval () =
  let sn, sp = Erm.Summarize.cardinality_interval left in
  Alcotest.check feq "sum of sn" 2.3 sn;
  Alcotest.check feq "sum of sp" 2.6 sp;
  let esn, esp =
    Erm.Summarize.cardinality_interval (Erm.Relation.empty schema)
  in
  Alcotest.check feq "empty sn" 0.0 esn;
  Alcotest.check feq "empty sp" 0.0 esp

let test_count_where () =
  let sn, sp =
    Erm.Summarize.count_where
      (Erm.Predicate.is_values "color" [ "red" ])
      left
  in
  (* x1: (0.9, 1)·(0.7, 1) = (0.63, 1); x3: Bel(red)=0, Pls=0.5 -> sn 0,
     dropped by closure; x2: 0. *)
  Alcotest.check feq "expected count lower bound" 0.63 sn;
  Alcotest.check feq "upper bound" 1.0 sp

let test_pool_and_histogram () =
  let pooled = Erm.Summarize.pool_evidence left "color" in
  Alcotest.check feq "pool weights by sn and normalizes" 1.0
    (List.fold_left (fun acc (_, x) -> acc +. x) 0.0 (M.focals pooled));
  (* green gets x2's full weight 0.4 out of 2.3. *)
  Alcotest.check feq "green share" (0.4 /. 2.3)
    (M.mass pooled (Vs.of_strings [ "green" ]));
  let hist = Erm.Summarize.pignistic_histogram left "color" in
  Alcotest.check feq "histogram sums to one" 1.0
    (List.fold_left (fun acc (_, p) -> acc +. p) 0.0 hist);
  Alcotest.(check bool)
    "pooling a definite attribute fails" true
    (match Erm.Summarize.pool_evidence left "bin" with
    | _ -> false
    | exception Erm.Etuple.Tuple_error _ -> true)

let test_group_count () =
  let groups = Erm.Summarize.group_count_by_definite left "bin" in
  Alcotest.(check int) "two bins" 2 (List.length groups);
  let b1_sn, b1_sp = List.assoc (V.string "b1") groups in
  Alcotest.check feq "b1 necessary count" 1.9 b1_sn;
  Alcotest.check feq "b1 possible count" 2.0 b1_sp

(* --- reliability ------------------------------------------------------ *)

let test_assess () =
  let a = Integration.Reliability.assess left right in
  (* One shared key (x1) with 2 cells: bin agrees (0), color kappa =
     0.7·0.6·0 …: [red^.7,Ω^.3] vs [red^.6,Ω^.4] never conflict -> 0. *)
  Alcotest.(check int) "two cell pairs" 2 a.pairs_compared;
  Alcotest.check feq "no conflict" 0.0 a.mean_conflict;
  Alcotest.check feq "full reliability" 1.0
    (Integration.Reliability.reliability_of_assessment a);
  (* x2's evidence is [green^1]; a source certain of red on the same
     key is in total conflict on that cell. *)
  let disagreeing =
    Erm.Relation.of_tuples schema [ item ~bin:"b2" "x2" "[red^1]" ]
  in
  let a2 = Integration.Reliability.assess left disagreeing in
  Alcotest.(check int) "one total conflict" 1 a2.total_conflicts;
  Alcotest.(check bool) "reliability drops" true
    (Integration.Reliability.reliability_of_assessment a2 < 1.0)

let test_discount_relation () =
  let d = Integration.Reliability.discount_relation 0.5 left in
  let x1 = Erm.Relation.find d [ V.string "x1" ] in
  Alcotest.check feq "membership sn halves" 0.45 (S.sn (Erm.Etuple.tm x1));
  Alcotest.check feq "membership sp widens" 1.0 (S.sp (Erm.Etuple.tm x1));
  Alcotest.check feq "evidence discounted" 0.35
    (M.mass (Erm.Etuple.evidence schema x1 "color") (Vs.of_strings [ "red" ]));
  Alcotest.(check bool)
    "alpha out of range" true
    (match Integration.Reliability.discount_relation 2.0 left with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_merge_discounted_avoids_conflict () =
  let a = Erm.Relation.of_tuples schema [ item "k" "[red^1]" ] in
  let b = Erm.Relation.of_tuples schema [ item "k" "[green^1]" ] in
  (* Plain merge reports a conflict and loses the tuple... *)
  let plain = Integration.Merge.by_key a b in
  Alcotest.(check int) "plain merge loses the pair" 0
    (Erm.Relation.cardinal plain.integrated);
  (* ...the discounted merge keeps it with softened evidence. *)
  let soft =
    Integration.Reliability.merge_discounted ~alpha_left:0.8 ~alpha_right:0.8
      a b
  in
  Alcotest.(check int) "discounted merge keeps it" 1
    (Erm.Relation.cardinal soft.integrated);
  Alcotest.(check int) "no conflicts" 0 (List.length soft.conflicts);
  let t = Erm.Relation.find soft.integrated [ V.string "k" ] in
  let color = Erm.Etuple.evidence schema t "color" in
  Alcotest.check feq "symmetric disagreement" (M.mass color (Vs.of_strings [ "red" ]))
    (M.mass color (Vs.of_strings [ "green" ]))

let test_merge_discounted_estimates () =
  (* With no explicit alphas, reliability is estimated from conflict;
     agreeing sources keep alpha = 1 and behave like a plain merge. *)
  let plain = Integration.Merge.by_key left right in
  let estimated = Integration.Reliability.merge_discounted left right in
  Alcotest.(check bool) "agreeing sources merge identically" true
    (Erm.Relation.equal plain.integrated estimated.integrated)

(* --- incremental integration ------------------------------------------ *)

(* Incremental integration is Multi.absorb_delta: one source folded into
   an existing merge, touching only the source's keys. *)
let absorb ~into name r =
  Integration.Multi.absorb_delta ~into
    { Integration.Multi.source_name = name; source_relation = r }

let test_incremental_insert_and_combine () =
  let merged, conflicts, _ = absorb ~into:Paperdata.r_a "rb" Paperdata.r_b in
  Alcotest.(check bool)
    "absorbing r_b into r_a reproduces Table 4" true
    (Erm.Relation.equal merged Paperdata.table4);
  Alcotest.(check int) "no conflicts on the paper data" 0
    (List.length conflicts)

let test_incremental_conflict_drops_pair () =
  (* As in integrate and Store.Delta: a totally conflicting pair is
     dropped and reported, and the stored tuple is the write set's
     delete. *)
  let one tuple = Erm.Relation.of_tuples schema [ tuple ] in
  let merged, conflicts, changes =
    absorb ~into:(one (item "k" "[red^1]")) "s" (one (item "k" "[green^1]"))
  in
  Alcotest.(check int) "pair dropped" 0 (Erm.Relation.cardinal merged);
  Alcotest.(check int) "conflict reported" 1 (List.length conflicts);
  Alcotest.(check bool) "stored tuple deleted" true
    (match changes with
     | [ Integration.Multi.Dropped t ] -> Erm.Etuple.key t = [ V.string "k" ]
     | _ -> false)

let test_incremental_ignores_sn_zero () =
  (* An sn = 0 tuple under a new key asserts nothing: integrate drops
     it, so absorb_delta must skip it rather than store it. *)
  let empty = Erm.Relation.empty schema in
  let ghost =
    Erm.Relation.of_tuples_unchecked schema
      [ item ~tm:S.unknown "g" "[red^1]" ]
  in
  let merged, conflicts, changes = absorb ~into:empty "ghost" ghost in
  Alcotest.(check int) "nothing stored" 0 (Erm.Relation.cardinal merged);
  Alcotest.(check int) "no conflict" 0 (List.length conflicts);
  Alcotest.(check int) "empty write set" 0 (List.length changes);
  let batch =
    Integration.Multi.integrate
      [ { Integration.Multi.source_name = "empty"; source_relation = empty };
        { Integration.Multi.source_name = "ghost"; source_relation = ghost } ]
  in
  Alcotest.(check bool) "= integrate" true
    (Erm.Relation.equal merged batch.Integration.Multi.integrated)

let test_incremental_order_insensitive () =
  (* Dempster commutes/associates, so absorption order cannot matter. *)
  let forward, _, _ = absorb ~into:left "right" right in
  let backward, _, _ = absorb ~into:right "left" left in
  Alcotest.(check bool) "order-insensitive merge" true
    (Erm.Relation.equal forward backward)

(* --- render formats ---------------------------------------------------- *)

let test_render_csv () =
  let csv = Erm.Render.to_csv left in
  let lines = String.split_on_char '
' (String.trim csv) in
  Alcotest.(check int) "header + 3 rows" 4 (List.length lines);
  Alcotest.(check string) "header" "id,bin,color,\"(sn,sp)\"" (List.hd lines);
  Alcotest.(check bool) "evidence fields are quoted (commas inside)" true
    (String.length csv > 0
    && List.for_all
         (fun l -> String.length l > 0)
         lines)

let test_render_markdown () =
  let md = Erm.Render.to_markdown ~title:"items" left in
  let lines = String.split_on_char '
' (String.trim md) in
  (* title, blank, header, rule, 3 rows *)
  Alcotest.(check int) "7 lines" 7 (List.length lines);
  Alcotest.(check string) "title" "**items**" (List.hd lines);
  Alcotest.(check bool) "rule line is dashes" true
    (String.length (List.nth lines 3) > 0
    && String.contains (List.nth lines 3) '-');
  (* every row has the header's column count *)
  let header_cols =
    List.length (String.split_on_char '|' (List.nth lines 2))
  in
  List.iteri
    (fun i l ->
      if i >= 2 then
        Alcotest.(check int)
          (Printf.sprintf "row %d column count" i)
          header_cols
          (List.length (String.split_on_char '|' l)))
    lines

let () =
  Alcotest.run "extensions"
    [ ( "set-algebra",
        [ Alcotest.test_case "difference" `Quick test_difference;
          Alcotest.test_case "intersection" `Quick test_intersection;
          Alcotest.test_case "partition decomposition" `Quick
            test_set_algebra_decomposition ] );
      ( "rank",
        [ Alcotest.test_case "sorted" `Quick test_rank_sorted;
          Alcotest.test_case "top/bottom" `Quick test_rank_top_bottom;
          Alcotest.test_case "best and range" `Quick test_rank_best_and_range;
          Alcotest.test_case "ORDER BY / LIMIT" `Quick
            test_query_order_by_limit;
          Alcotest.test_case "optimizer interaction" `Quick
            test_query_order_by_optimizer ] );
      ( "summarize",
        [ Alcotest.test_case "cardinality interval" `Quick
            test_cardinality_interval;
          Alcotest.test_case "count_where" `Quick test_count_where;
          Alcotest.test_case "pool and histogram" `Quick
            test_pool_and_histogram;
          Alcotest.test_case "group counts" `Quick test_group_count ] );
      ( "reliability",
        [ Alcotest.test_case "assess" `Quick test_assess;
          Alcotest.test_case "discount relation" `Quick
            test_discount_relation;
          Alcotest.test_case "discounted merge resolves conflict" `Quick
            test_merge_discounted_avoids_conflict;
          Alcotest.test_case "estimated alphas" `Quick
            test_merge_discounted_estimates ] );
      ( "incremental",
        [ Alcotest.test_case "stream reproduces Table 4" `Quick
            test_incremental_insert_and_combine;
          Alcotest.test_case "total conflict drops the pair" `Quick
            test_incremental_conflict_drops_pair;
          Alcotest.test_case "sn = 0 ignored" `Quick
            test_incremental_ignores_sn_zero;
          Alcotest.test_case "order-insensitive" `Quick
            test_incremental_order_insensitive ] );
      ( "render",
        [ Alcotest.test_case "csv" `Quick test_render_csv;
          Alcotest.test_case "markdown" `Quick test_render_markdown ] ) ]
