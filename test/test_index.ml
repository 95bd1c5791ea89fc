(* Unit tests for secondary indexes and the machinery the physical
   planner builds on them: duplicate indexed values, empty relations,
   Not_definite on evidential attributes, snapshot staleness after
   Relation.replace (both at the Index level and through the Physical
   execution context), and the context's union memo. *)

module M = Dst.Mass.F
module V = Dst.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- fixture -------------------------------------------------------- *)

let rating_dom = Dst.Domain.of_strings "rating" [ "avg"; "ex"; "gd" ]

let schema =
  Erm.Schema.make ~name:"r"
    ~key:[ Erm.Attr.definite "k" "string" ]
    ~nonkey:
      [ Erm.Attr.definite "city" "string";
        Erm.Attr.evidential "rating" rating_dom ]

let tup k city rating_atom ~sn ~sp =
  Erm.Etuple.make schema
    ~key:[ V.string k ]
    ~cells:
      [ Erm.Etuple.Definite (V.string city);
        Erm.Etuple.Evidence
          (M.certain_set rating_dom (Dst.Vset.singleton (V.string rating_atom)))
      ]
    ~tm:(Dst.Support.make ~sn ~sp)

let r =
  Erm.Relation.of_tuples schema
    [ tup "ashiana" "sf" "ex" ~sn:1.0 ~sp:1.0;
      tup "country" "sf" "gd" ~sn:0.8 ~sp:1.0;
      tup "garden" "la" "ex" ~sn:1.0 ~sp:1.0;
      tup "mehl" "ny" "avg" ~sn:0.5 ~sp:0.5 ]

(* --- index ---------------------------------------------------------- *)

let index_tests =
  [ Alcotest.test_case "duplicate indexed values bucket together" `Quick
      (fun () ->
        let idx = Erm.Index.build r "city" in
        check_int "distinct cities" 3 (Erm.Index.distinct_values idx);
        let keys = Erm.Index.lookup idx (V.string "sf") in
        check_int "sf bucket" 2 (List.length keys);
        (* key order, like Relation.tuples *)
        check "bucket in key order" true
          (keys = [ [ V.string "ashiana" ] ; [ V.string "country" ] ]));
    Alcotest.test_case "lookup miss is empty, not an error" `Quick (fun () ->
        let idx = Erm.Index.build r "city" in
        check_int "no tokyo" 0 (List.length (Erm.Index.lookup idx (V.string "tokyo")));
        check "select_eq miss" true
          (Erm.Relation.is_empty (Erm.Index.select_eq idx r (V.string "tokyo"))));
    Alcotest.test_case "select_eq = select on equality" `Quick (fun () ->
        let idx = Erm.Index.build r "city" in
        let naive =
          Erm.Ops.select
            (Erm.Predicate.theta Erm.Predicate.Eq
               (Erm.Predicate.Field "city")
               (Erm.Predicate.Const (Erm.Etuple.Definite (V.string "sf"))))
            r
        in
        check "same relation" true
          (Erm.Relation.equal naive (Erm.Index.select_eq idx r (V.string "sf"))));
    Alcotest.test_case "empty relation indexes fine" `Quick (fun () ->
        let empty = Erm.Relation.empty schema in
        let idx = Erm.Index.build empty "city" in
        check_int "no values" 0 (Erm.Index.distinct_values idx);
        check "empty probe" true
          (Erm.Relation.is_empty
             (Erm.Index.select_eq idx empty (V.string "sf"))));
    Alcotest.test_case "key attributes are indexable" `Quick (fun () ->
        let idx = Erm.Index.build r "k" in
        check_int "one bucket per tuple" 4 (Erm.Index.distinct_values idx);
        check_int "singleton bucket" 1
          (List.length (Erm.Index.lookup idx (V.string "mehl"))));
    Alcotest.test_case "Not_definite on evidential attributes" `Quick
      (fun () ->
        Alcotest.check_raises "build" (Erm.Index.Not_definite "rating")
          (fun () -> ignore (Erm.Index.build r "rating")));
    Alcotest.test_case "join_indexed refuses evidential join attrs" `Quick
      (fun () ->
        let b = Erm.Ops.rename_attrs (fun n -> "r_" ^ n) r in
        Alcotest.check_raises "join" (Erm.Index.Not_definite "rating")
          (fun () ->
            ignore
              (Erm.Ops.join_indexed ~left_attr:"rating" ~right_attr:"r_rating"
                 r b)));
    Alcotest.test_case "index is a snapshot: stale after replace" `Quick
      (fun () ->
        let idx = Erm.Index.build r "city" in
        let r' = Erm.Relation.replace r (tup "ashiana" "la" "ex" ~sn:1.0 ~sp:1.0) in
        (* the old snapshot still files ashiana under sf … *)
        check_int "stale bucket" 2
          (List.length (Erm.Index.lookup idx (V.string "sf")));
        (* … a rebuild sees the move. *)
        let idx' = Erm.Index.build r' "city" in
        check_int "fresh sf" 1 (List.length (Erm.Index.lookup idx' (V.string "sf")));
        check_int "fresh la" 2 (List.length (Erm.Index.lookup idx' (V.string "la")))) ]

(* --- physical execution context ------------------------------------- *)

let probe_query =
  Query.Ast.Select
    { cols = Some [ "k" ];
      from = Query.Ast.Rel "r";
      where =
        Query.Ast.Cmp
          (Erm.Predicate.Eq, Query.Ast.Attr "city",
           Query.Ast.Scalar (V.string "sf"));
      threshold = Erm.Threshold.always }

let ctx_tests =
  [ Alcotest.test_case "probe plan is chosen" `Quick (fun () ->
        match Query.Physical.plan [ ("r", r) ] probe_query with
        | Query.Physical.Scan
            { access = Query.Physical.Index_eq { attr = "city"; _ }; _ } ->
            ()
        | p -> Alcotest.failf "expected index scan, got %s" (Query.Physical.to_string p));
    Alcotest.test_case "ctx never serves a stale index after replace" `Quick
      (fun () ->
        let ctx = Query.Physical.create_ctx () in
        let run env =
          Erm.Relation.cardinal (Query.Physical.eval_fast ~ctx env probe_query)
        in
        check_int "before" 2 (run [ ("r", r) ]);
        (* same name, updated relation: the cached index must not answer *)
        let r' =
          Erm.Relation.replace r (tup "ashiana" "la" "ex" ~sn:1.0 ~sp:1.0)
        in
        check_int "after replace" 1 (run [ ("r", r') ]);
        (* and the original binding still answers as before *)
        check_int "back to original" 2 (run [ ("r", r) ])) ]

(* --- union memo ------------------------------------------------------ *)

let ev atoms =
  M.make rating_dom
    (List.map
       (fun (a, w) -> (Dst.Vset.singleton (V.string a), w))
       atoms)

(* A one-tuple relation [name] whose rating cell holds [m]. *)
let single name m =
  let schema = Erm.Schema.rename_relation name schema in
  Erm.Relation.of_tuples schema
    [ Erm.Etuple.make schema ~key:[ V.string "k" ]
        ~cells:[ Erm.Etuple.Definite (V.string "sf"); Erm.Etuple.Evidence m ]
        ~tm:Dst.Support.certain ]

let rating r =
  match Erm.Relation.tuples r with
  | [ t ] -> (
      match Erm.Etuple.cells t with
      | [ _; Erm.Etuple.Evidence m ] -> m
      | _ -> Alcotest.fail "no rating cell")
  | _ -> Alcotest.fail "expected one tuple"

let pair a b = [ ("a", single "a" a); ("b", single "b" b) ]

(* Run [q] on [ctx]: its result and the root union's memo (hits,
   misses). *)
let memo_run ctx env q =
  let plan = Query.Physical.plan_optimized env (Query.Parser.parse q) in
  let out, rep = Query.Physical.execute_measured ~ctx env plan in
  let s = rep.Query.Physical.r_stats in
  (out, (s.Query.Stats.cache_hits, s.Query.Stats.cache_misses))

let check_memo what expected got =
  Alcotest.(check (pair int int)) what expected got

let cache_tests =
  [ Alcotest.test_case "cached combine equals plain combine" `Quick
      (fun () ->
        let a = ev [ ("ex", 0.6); ("gd", 0.4) ]
        and b = ev [ ("ex", 0.7); ("avg", 0.3) ] in
        let env = pair a b and ctx = Query.Physical.create_ctx () in
        let cold, memo = memo_run ctx env "a UNION b" in
        check "bit-equal to the plain combination" true
          (M.compare (M.combine a b) (rating cold) = 0);
        check_memo "one miss" (0, 1) memo;
        let warm, memo = memo_run ctx env "a UNION b" in
        check_memo "then a hit" (1, 0) memo;
        check "the stored result" true (warm == cold));
    Alcotest.test_case "operand order is part of the key" `Quick (fun () ->
        let a = ev [ ("ex", 0.6); ("gd", 0.4) ]
        and b = ev [ ("ex", 0.7); ("avg", 0.3) ] in
        let env = pair a b and ctx = Query.Physical.create_ctx () in
        ignore (memo_run ctx env "a UNION b");
        (* commutative, but not bit for bit: the swap is its own entry *)
        let swapped, memo = memo_run ctx env "b UNION a" in
        check_memo "swap misses" (0, 1) memo;
        check "bits of the swapped order" true
          (M.compare (M.combine b a) (rating swapped) = 0));
    Alcotest.test_case "a raising union stores nothing" `Quick (fun () ->
        let env = pair (ev [ ("ex", 1.0) ]) (ev [ ("avg", 1.0) ]) in
        let ctx = Query.Physical.create_ctx () in
        Obs.Metrics.reset ();
        Obs.Metrics.enable ();
        Fun.protect
          ~finally:(fun () ->
            Obs.Metrics.disable ();
            Obs.Metrics.reset ())
          (fun () ->
            let boom () =
              Alcotest.check_raises "kappa = 1" M.Total_conflict (fun () ->
                  ignore (memo_run ctx env "a UNION b"))
            in
            boom ();
            boom ();
            check_int "derived twice" 2 (Obs.Metrics.counter "union_memo.miss");
            check_int "never served" 0 (Obs.Metrics.counter "union_memo.hit")));
    Alcotest.test_case "no hit across kappa0" `Quick (fun () ->
        (* The memo keys each policy by Rule.policy_key: a different κ₀
           misses, an equal policy value built afresh hits. κ = 0.58
           here, so the two policies also give different results. *)
        let env =
          pair
            (ev [ ("ex", 0.6); ("gd", 0.4) ])
            (ev [ ("ex", 0.7); ("avg", 0.3) ])
        in
        let policy kappa0 =
          Dst.Rule.make
            ~escalation:(Dst.Rule.escalate ~kappa0 Dst.Rule.Quarantine)
            Dst.Rule.Dempster
        in
        let ctx = Query.Physical.create_ctx () in
        let go p =
          Dst.Rule.with_policy p (fun () -> memo_run ctx env "a UNION b")
        in
        let run p = snd (go p) in
        let rows p = Erm.Relation.cardinal (fst (go p)) in
        let p1 = policy 0.25 and p2 = policy 0.75 in
        check_memo "first policy misses" (0, 1) (run p1);
        check_memo "then hits" (1, 0) (run p1);
        check_memo "another kappa0 misses" (0, 1) (run p2);
        check_memo "first policy's entry kept" (1, 0) (run p1);
        check_memo "second policy's entry" (1, 0) (run p2);
        check_memo "an equal policy value hits" (1, 0) (run (policy 0.75));
        check_int "quarantined under the first" 0 (rows p1);
        check_int "combined under the second" 1 (rows p2)) ]

let () =
  Alcotest.run "index"
    [ ("index", index_tests); ("ctx", ctx_tests); ("cache", cache_tests) ]
