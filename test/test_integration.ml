(* The Figure 1 integration framework: surveys, domain mappings,
   attribute preprocessing, entity identification, tuple merging, and
   the end-to-end pipeline against the paper's data. *)

module V = Dst.Value
module Vs = Dst.Vset
module D = Dst.Domain
module M = Dst.Mass.F
module S = Dst.Support
module Sv = Integration.Survey

let feq = Alcotest.float 1e-9
let sup = Alcotest.testable S.pp S.equal
let ev_t = Alcotest.testable M.pp M.equal

let dishes = D.of_strings "dishes" [ "d1"; "d2"; "d3" ]

(* --- Survey --------------------------------------------------------- *)

let test_survey_paper_tally () =
  (* §1.2: votes d1:3, d2:2, d3:1 -> [d1^0.5; d2^0.33; d3^0.17]. *)
  let t =
    Sv.of_votes dishes
      (List.init 3 (fun _ -> Sv.For (V.string "d1"))
      @ List.init 2 (fun _ -> Sv.For (V.string "d2"))
      @ [ Sv.For (V.string "d3") ])
  in
  Alcotest.(check int) "six votes" 6 (Sv.total t);
  Alcotest.(check int) "three for d1" 3 (Sv.count t (Sv.For (V.string "d1")));
  let e = Sv.to_evidence t in
  Alcotest.check feq "d1" 0.5 (M.mass e (Vs.of_strings [ "d1" ]));
  Alcotest.check feq "d2" (1.0 /. 3.0) (M.mass e (Vs.of_strings [ "d2" ]));
  Alcotest.check feq "d3" (1.0 /. 6.0) (M.mass e (Vs.of_strings [ "d3" ]))

let test_survey_set_votes_and_abstentions () =
  let t =
    Sv.of_votes dishes
      [ Sv.For (V.string "d1");
        Sv.For_any (Vs.of_strings [ "d2"; "d3" ]);
        Sv.Abstain;
        Sv.Abstain ]
  in
  let e = Sv.to_evidence t in
  Alcotest.check feq "set vote" 0.25 (M.mass e (Vs.of_strings [ "d2"; "d3" ]));
  Alcotest.check feq "abstentions to omega" 0.5 (M.mass e (D.values dishes))

let test_survey_consensus () =
  let unanimous =
    Sv.of_votes dishes [ Sv.For (V.string "d1"); Sv.For (V.string "d1"); Sv.Abstain ]
  in
  Alcotest.(check bool) "consensus on d1" true
    (Sv.consensus unanimous = Some (V.string "d1"));
  let split =
    Sv.of_votes dishes [ Sv.For (V.string "d1"); Sv.For (V.string "d2") ]
  in
  Alcotest.(check bool) "no consensus" true (Sv.consensus split = None)

let test_survey_errors () =
  let fails f =
    Alcotest.(check bool)
      "raises Survey_error" true
      (match f () with _ -> false | exception Sv.Survey_error _ -> true)
  in
  fails (fun () -> Sv.cast (Sv.create dishes) (Sv.For (V.string "d99")));
  fails (fun () -> Sv.cast (Sv.create dishes) (Sv.For_any Vs.empty));
  fails (fun () -> Sv.to_evidence (Sv.create dishes))

(* --- Mapping -------------------------------------------------------- *)

let stars = D.of_strings "stars" [ "low"; "mid"; "high" ]

let test_mapping_exact () =
  let m =
    Integration.Mapping.exact stars (fun v ->
        match v with
        | V.Int n when n <= 2 -> V.string "low"
        | V.Int n when n <= 4 -> V.string "mid"
        | _ -> V.string "high")
  in
  let e = Integration.Mapping.apply m (V.int 3) in
  Alcotest.(check bool) "definite image" true (M.is_definite e);
  Alcotest.check feq "mid" 1.0 (M.mass e (Vs.of_strings [ "mid" ]))

let test_mapping_ambiguous () =
  (* A DeMichiel partial value: "B+" maps to mid-or-high. *)
  let m =
    Integration.Mapping.ambiguous stars (fun v ->
        if V.equal v (V.string "B+") then Vs.of_strings [ "mid"; "high" ]
        else Vs.empty)
  in
  let e = Integration.Mapping.apply m (V.string "B+") in
  Alcotest.check feq "categorical evidence on the image set" 1.0
    (M.mass e (Vs.of_strings [ "mid"; "high" ]));
  Alcotest.(check bool)
    "unmapped raises" true
    (match Integration.Mapping.apply m (V.string "zzz") with
    | _ -> false
    | exception Integration.Mapping.Unmapped _ -> true)

let test_mapping_weighted () =
  let m =
    Integration.Mapping.weighted stars (fun _ ->
        [ (Vs.of_strings [ "mid" ], 3.0); (Vs.of_strings [ "high" ], 1.0) ])
  in
  let e = Integration.Mapping.apply m (V.int 1) in
  Alcotest.check feq "weights normalize 3:1" 0.75
    (M.mass e (Vs.of_strings [ "mid" ]))

let test_mapping_table () =
  let m =
    Integration.Mapping.table stars
      [ (V.string "ok", [ (Vs.of_strings [ "mid" ], 1.0) ]) ]
  in
  Alcotest.check feq "table hit" 1.0
    (M.mass (Integration.Mapping.apply m (V.string "ok")) (Vs.of_strings [ "mid" ]));
  Alcotest.(check bool)
    "table miss raises" true
    (match Integration.Mapping.apply m (V.string "??") with
    | _ -> false
    | exception Integration.Mapping.Unmapped _ -> true);
  let lenient =
    Integration.Mapping.table ~default_to_omega:true stars
      [ (V.string "ok", [ (Vs.of_strings [ "mid" ], 1.0) ]) ]
  in
  Alcotest.(check bool)
    "lenient miss is ignorance" true
    (M.is_vacuous (Integration.Mapping.apply lenient (V.string "??")))

let test_mapping_identity_and_compose () =
  let id = Integration.Mapping.identity stars in
  Alcotest.check ev_t "identity passes through"
    (M.certain stars (V.string "mid"))
    (Integration.Mapping.apply id (V.string "mid"));
  (* grades -> {low,mid,high} -> coarse {bad,good} *)
  let coarse = D.of_strings "coarse" [ "bad"; "good" ] in
  let f =
    Integration.Mapping.exact coarse (fun v ->
        if V.equal v (V.string "low") then V.string "bad" else V.string "good")
  in
  let g =
    Integration.Mapping.ambiguous stars (fun v ->
        match v with
        | V.Int 1 -> Vs.of_strings [ "low" ]
        | V.Int 2 -> Vs.of_strings [ "low"; "mid" ]
        | _ -> Vs.of_strings [ "high" ])
  in
  let fg = Integration.Mapping.compose f g in
  Alcotest.check feq "1 -> low -> bad" 1.0
    (M.mass (Integration.Mapping.apply fg (V.int 1)) (Vs.of_strings [ "bad" ]));
  Alcotest.check feq "2 -> {low,mid} -> {bad,good}" 1.0
    (M.mass
       (Integration.Mapping.apply fg (V.int 2))
       (Vs.of_strings [ "bad"; "good" ]))

(* --- Preprocess ----------------------------------------------------- *)

let raw_schema =
  Erm.Schema.make ~name:"raw"
    ~key:[ Erm.Attr.definite "id" "string" ]
    ~nonkey:
      [ Erm.Attr.definite "city" "string"; Erm.Attr.definite "grade" "int" ]

let raw =
  Erm.Relation.of_tuples raw_schema
    [ Erm.Etuple.make raw_schema ~key:[ V.string "a" ]
        ~cells:
          [ Erm.Etuple.Definite (V.string "oslo");
            Erm.Etuple.Definite (V.int 2) ]
        ~tm:S.certain;
      Erm.Etuple.make raw_schema ~key:[ V.string "b" ]
        ~cells:
          [ Erm.Etuple.Definite (V.string "bergen");
            Erm.Etuple.Definite (V.int 5) ]
        ~tm:S.certain ]

let target_schema =
  Erm.Schema.make ~name:"virtual"
    ~key:[ Erm.Attr.definite "id" "string" ]
    ~nonkey:
      [ Erm.Attr.definite "city" "string"; Erm.Attr.evidential "stars" stars ]

let grade_mapping =
  Integration.Mapping.ambiguous stars (fun v ->
      match v with
      | V.Int n when n <= 2 -> Vs.of_strings [ "low"; "mid" ]
      | _ -> Vs.of_strings [ "high" ])

let spec =
  { Integration.Preprocess.target = target_schema;
    rules =
      [ ("city", Integration.Preprocess.Copy "city");
        ("stars", Integration.Preprocess.Mapped ("grade", grade_mapping)) ];
    membership = (fun _ -> S.make ~sn:0.9 ~sp:1.0) }

let test_preprocess_run () =
  let out = Integration.Preprocess.run spec raw in
  Alcotest.(check int) "all tuples preprocessed" 2 (Erm.Relation.cardinal out);
  let a = Erm.Relation.find out [ V.string "a" ] in
  Alcotest.check feq "grade 2 -> {low,mid}" 1.0
    (M.mass
       (Erm.Etuple.evidence target_schema a "stars")
       (Vs.of_strings [ "low"; "mid" ]));
  Alcotest.check sup "membership from the spec" (S.make ~sn:0.9 ~sp:1.0)
    (Erm.Etuple.tm a);
  Alcotest.check (Alcotest.testable V.pp V.equal) "city copied"
    (V.string "oslo")
    (Erm.Etuple.definite_value target_schema a "city")

let test_preprocess_errors () =
  let fails spec' =
    Alcotest.(check bool)
      "raises Preprocess_error" true
      (match Integration.Preprocess.run spec' raw with
      | _ -> false
      | exception Integration.Preprocess.Preprocess_error _ -> true)
  in
  fails { spec with rules = List.tl spec.rules } (* missing rule *);
  fails
    { spec with
      rules = ("bogus", Integration.Preprocess.Copy "city") :: spec.rules };
  fails
    { spec with
      rules =
        [ ("city", Integration.Preprocess.Copy "nope");
          List.nth spec.rules 1 ] }

let test_preprocess_survey_rule () =
  let votes = function
    | [ V.String "a" ] ->
        Sv.of_votes stars [ Sv.For (V.string "low"); Sv.For (V.string "mid") ]
    | _ -> Sv.of_votes stars [ Sv.For (V.string "high") ]
  in
  let spec' =
    { spec with
      rules =
        [ ("city", Integration.Preprocess.Copy "city");
          ("stars", Integration.Preprocess.From_survey votes) ] }
  in
  let out = Integration.Preprocess.run spec' raw in
  let a = Erm.Relation.find out [ V.string "a" ] in
  Alcotest.check feq "survey consolidated" 0.5
    (M.mass (Erm.Etuple.evidence target_schema a "stars")
       (Vs.of_strings [ "low" ]))

(* --- Entity identification ------------------------------------------ *)

let test_entity_id_by_key () =
  let m = Integration.Entity_id.by_key Paperdata.r_a Paperdata.r_b in
  Alcotest.(check int) "five matches" 5 (List.length m.matched);
  Alcotest.(check int) "ashiana only in A" 1 (List.length m.only_left);
  Alcotest.(check int) "nothing only in B" 0 (List.length m.only_right)

let witness_schema =
  Erm.Schema.make ~name:"w"
    ~key:[ Erm.Attr.definite "id" "string" ]
    ~nonkey:
      [ Erm.Attr.definite "phone" "string";
        Erm.Attr.definite "street" "string" ]

let w_tuple id phone street =
  Erm.Etuple.make witness_schema ~key:[ V.string id ]
    ~cells:
      [ Erm.Etuple.Definite (V.string phone);
        Erm.Etuple.Definite (V.string street) ]
    ~tm:S.certain

let witnesses =
  [ Integration.Entity_id.exact_witness ~reliability:0.9 "phone";
    Integration.Entity_id.exact_witness ~reliability:0.5 "street" ]

let test_match_support () =
  let a = w_tuple "x1" "555" "main" in
  let b = w_tuple "y1" "555" "main" in
  let s_agree =
    Integration.Entity_id.match_support witness_schema witnesses a b
  in
  (* Two agreeing simple supports: sn = 1 - (1-.9)(1-.5) = 0.95. *)
  Alcotest.check feq "agreement combines" 0.95 (S.sn s_agree);
  let c = w_tuple "y2" "666" "main" in
  let s_mixed =
    Integration.Entity_id.match_support witness_schema witnesses a c
  in
  Alcotest.(check bool) "disagreement lowers support" true
    (S.sn s_mixed < 0.5)

let test_by_similarity () =
  let left =
    Erm.Relation.of_tuples witness_schema
      [ w_tuple "a1" "555" "main"; w_tuple "a2" "777" "oak" ]
  in
  let right =
    Erm.Relation.of_tuples witness_schema
      [ w_tuple "b1" "555" "main"; w_tuple "b2" "888" "elm" ]
  in
  let m =
    Integration.Entity_id.by_similarity ~threshold:0.9 ~witnesses left right
  in
  Alcotest.(check int) "a1-b1 matched" 1 (List.length m.matched);
  Alcotest.(check int) "a2 unmatched" 1 (List.length m.only_left);
  Alcotest.(check int) "b2 unmatched" 1 (List.length m.only_right)

let test_levenshtein () =
  let module E = Integration.Entity_id in
  Alcotest.(check int) "identical" 0 (E.levenshtein "kitten" "kitten");
  Alcotest.(check int) "classic kitten/sitting" 3
    (E.levenshtein "kitten" "sitting");
  Alcotest.(check int) "empty vs word" 4 (E.levenshtein "" "word");
  Alcotest.(check int) "single substitution" 1
    (E.levenshtein "371-2155" "371-2156")

let test_fuzzy_witness () =
  let module E = Integration.Entity_id in
  (* One digit of the phone differs; a fuzzy witness still supports the
     match (scaled), an exact witness speaks against it. *)
  let a = w_tuple "x" "371-2155" "main" in
  let b = w_tuple "y" "371-2156" "main" in
  let fuzzy =
    [ E.fuzzy_witness ~reliability:0.9 "phone";
      E.exact_witness ~reliability:0.5 "street" ]
  in
  let exact =
    [ E.exact_witness ~reliability:0.9 "phone";
      E.exact_witness ~reliability:0.5 "street" ]
  in
  let s_fuzzy = E.match_support witness_schema fuzzy a b in
  let s_exact = E.match_support witness_schema exact a b in
  Alcotest.(check bool) "fuzzy supports the match" true
    (S.sn s_fuzzy > 0.8);
  Alcotest.(check bool) "exact is much weaker" true
    (S.sn s_exact < S.sn s_fuzzy -. 0.3);
  (* Far-apart strings fall below the floor and count as disagreement. *)
  let c = w_tuple "z" "999-0000" "main" in
  let s_far = E.match_support witness_schema fuzzy a c in
  Alcotest.(check bool) "distant strings disagree" true
    (S.sn s_far < 0.5)

(* --- Merge and pipeline --------------------------------------------- *)

let test_merge_by_key_paper () =
  let report = Integration.Merge.by_key Paperdata.r_a Paperdata.r_b in
  Alcotest.(check bool) "integrated = Table 4" true
    (Erm.Relation.equal report.integrated Paperdata.table4);
  Alcotest.(check int) "five merged" 5 report.merged_count;
  Alcotest.(check int) "one left-only" 1 report.left_only;
  Alcotest.(check int) "no conflicts" 0 (List.length report.conflicts)

let test_merge_of_matching_rekeys () =
  let left = Erm.Relation.of_tuples witness_schema [ w_tuple "a1" "555" "main" ] in
  let right = Erm.Relation.of_tuples witness_schema [ w_tuple "b1" "555" "main" ] in
  let matching =
    Integration.Entity_id.by_similarity ~threshold:0.9 ~witnesses left right
  in
  let report = Integration.Merge.of_matching witness_schema matching in
  Alcotest.(check int) "one merged tuple" 1
    (Erm.Relation.cardinal report.integrated);
  Alcotest.(check bool) "under the left key" true
    (Erm.Relation.mem report.integrated [ V.string "a1" ])

let test_pipeline_end_to_end () =
  (* Raw relations with survey-derived stars, preprocessed and merged. *)
  let raw_b_schema = Erm.Schema.rename_relation "raw_b" raw_schema in
  let raw_b =
    Erm.Relation.of_tuples raw_b_schema
      [ Erm.Etuple.make raw_b_schema ~key:[ V.string "a" ]
          ~cells:
            [ Erm.Etuple.Definite (V.string "oslo");
              Erm.Etuple.Definite (V.int 4) ]
          ~tm:S.certain ]
  in
  let source_a = { Integration.Pipeline.relation = raw; spec } in
  let source_b =
    { Integration.Pipeline.relation = raw_b;
      spec = { spec with membership = (fun _ -> S.certain) } }
  in
  let report = Integration.Pipeline.integrate source_a source_b in
  (* a: {low,mid} ⊕ {high} = total conflict -> reported, tuple dropped;
     only b survives. *)
  Alcotest.(check int) "b passes through, a dropped" 1
    (Erm.Relation.cardinal report.integrated);
  Alcotest.(check int) "conflict reported" 1 (List.length report.conflicts);
  let answers =
    Integration.Pipeline.query report
      ~threshold:(Erm.Threshold.sn_gt 0.5)
      (Erm.Predicate.is_values "stars" [ "high" ])
  in
  Alcotest.(check int) "query over the merge" 1 (Erm.Relation.cardinal answers)

(* --- multi-source integration ---------------------------------------- *)

let test_multi_two_sources_match_union () =
  let report =
    Integration.Multi.integrate
      [ { Integration.Multi.source_name = "a"; source_relation = Paperdata.r_a };
        { Integration.Multi.source_name = "b"; source_relation = Paperdata.r_b } ]
  in
  Alcotest.(check bool) "two-source fold = Table 4" true
    (Erm.Relation.equal report.integrated Paperdata.table4);
  Alcotest.(check int) "one matrix entry" 1
    (List.length report.conflict_matrix);
  Alcotest.(check bool) "undiscounted reliabilities are 1" true
    (List.for_all (fun (_, a) -> a = 1.0) report.reliabilities)

let test_multi_three_sources_order_independent () =
  let rng = Workload.Rng.create 99 in
  let schema3 = Workload.Gen.schema "tri" in
  let a, b = Workload.Gen.source_pair rng ~size:10 ~overlap:0.6 schema3 in
  let c = Workload.Gen.reobserve (Workload.Rng.create 7) a in
  let src n r = { Integration.Multi.source_name = n; source_relation = r } in
  let fwd = Integration.Multi.integrate [ src "a" a; src "b" b; src "c" c ] in
  let rev = Integration.Multi.integrate [ src "c" c; src "b" b; src "a" a ] in
  Alcotest.(check bool) "order-independent result" true
    (Erm.Relation.equal fwd.integrated rev.integrated);
  Alcotest.(check int) "three pairwise kappas" 3
    (List.length fwd.conflict_matrix)

let test_multi_discounted_keeps_conflicting_tuple () =
  let schema1 =
    Erm.Schema.make ~name:"s"
      ~key:[ Erm.Attr.definite "k" "string" ]
      ~nonkey:[ Erm.Attr.evidential "c" stars ]
  in
  let mk name ev =
    ( name,
      Erm.Relation.of_tuples schema1
        [ Erm.Etuple.make schema1
            ~key:[ V.string "x" ]
            ~cells:[ Erm.Etuple.Evidence (Dst.Evidence.of_string stars ev) ]
            ~tm:S.certain ] )
  in
  (* Total contradiction would estimate reliability 0 for both sources
     (α-discounting then erases them — the right degenerate behaviour);
     heavy-but-partial conflict is the interesting case. *)
  let _, low = mk "low" "[low^1]" in
  let _, high = mk "high" "[high^0.9; ~^0.1]" in
  let src n r = { Integration.Multi.source_name = n; source_relation = r } in
  let plain = Integration.Multi.integrate [ src "low" low; src "high" high ] in
  Alcotest.(check int) "plain integration keeps it via the omega sliver" 1
    (Erm.Relation.cardinal plain.integrated);
  (* Plain Dempster normalizes the 0.9 conflict away and ends up certain
     of "low" — overconfident. Discounting keeps the tuple but hedged. *)
  let plain_cell =
    Erm.Etuple.evidence schema1
      (Erm.Relation.find plain.integrated [ V.string "x" ])
      "c"
  in
  Alcotest.(check bool) "plain result is (over)certain" true
    (M.is_definite plain_cell);
  let soft =
    Integration.Multi.integrate ~discount:true
      [ src "low" low; src "high" high ]
  in
  Alcotest.(check int) "discounted integration keeps it too" 1
    (Erm.Relation.cardinal soft.integrated);
  Alcotest.(check bool) "reliabilities dropped below 1" true
    (List.for_all (fun (_, a) -> a < 1.0) soft.reliabilities);
  let soft_cell =
    Erm.Etuple.evidence schema1
      (Erm.Relation.find soft.integrated [ V.string "x" ])
      "c"
  in
  Alcotest.(check bool) "discounted result keeps ignorance" true
    (M.mass soft_cell (D.values stars) > 0.1)

let test_multi_no_sources () =
  Alcotest.check_raises "empty list" Integration.Multi.No_sources (fun () ->
      ignore (Integration.Multi.integrate []))

(* --- Multi / Reliability edge cases ---------------------------------- *)

let edge_schema =
  Erm.Schema.make ~name:"edge"
    ~key:[ Erm.Attr.definite "k" "string" ]
    ~nonkey:[ Erm.Attr.evidential "c" stars ]

let edge_tup ?(tm = S.certain) k ev =
  Erm.Etuple.make edge_schema
    ~key:[ V.string k ]
    ~cells:[ Erm.Etuple.Evidence (Dst.Evidence.of_string stars ev) ]
    ~tm

let edge_src n tuples =
  { Integration.Multi.source_name = n;
    source_relation = Erm.Relation.of_tuples edge_schema tuples }

let test_multi_single_source () =
  let r = Erm.Relation.of_tuples edge_schema [ edge_tup "x" "[low^1]" ] in
  let report =
    Integration.Multi.integrate ~discount:true
      [ { Integration.Multi.source_name = "solo"; source_relation = r } ]
  in
  Alcotest.(check bool) "integrated is the source itself" true
    (Erm.Relation.equal report.integrated r);
  Alcotest.(check int) "no pairs, no matrix" 0
    (List.length report.conflict_matrix);
  Alcotest.check feq "no peers means full trust" 1.0
    (List.assoc "solo" report.reliabilities)

(* A lone source meets no union, yet the integrated relation must keep
   the closure every union enforces: its sn = 0 tuples are dropped, as
   integrating it beside an empty source drops them, inline and
   sharded. *)
let test_multi_single_source_cwa () =
  let zero = S.make ~sn:0.0 ~sp:0.5 in
  let g =
    Erm.Relation.of_tuples_unchecked edge_schema
      [ edge_tup ~tm:zero "x" "[low^1]";
        edge_tup "y" "[high^0.6; ~^0.4]";
        edge_tup ~tm:zero "z" "[low^0.5; ~^0.5]" ]
  in
  let src n r = { Integration.Multi.source_name = n; source_relation = r } in
  let empty = src "empty" (Erm.Relation.empty edge_schema) in
  List.iter
    (fun shards ->
      let sharded = { Query.Physical.shards; domains = 1 } in
      let alone = Integration.Multi.integrate ~sharded [ src "g" g ] in
      let beside = Integration.Multi.integrate ~sharded [ src "g" g; empty ] in
      let at = Printf.sprintf " (%d shards)" shards in
      Alcotest.(check bool) ("integrate [g] = integrate [g; empty]" ^ at) true
        (Exact.rel_equal alone.integrated beside.integrated);
      Alcotest.(check int) ("only the sn > 0 tuple" ^ at) 1
        (Erm.Relation.cardinal alone.integrated);
      Alcotest.(check bool) ("closure holds alone" ^ at) true
        (Erm.Relation.satisfies_cwa alone.integrated);
      Alcotest.(check bool) ("closure holds beside empty" ^ at) true
        (Erm.Relation.satisfies_cwa beside.integrated))
    [ 1; 2 ]

let test_multi_empty_relations () =
  let report =
    Integration.Multi.integrate ~discount:true
      [ edge_src "ea" []; edge_src "eb" [] ]
  in
  Alcotest.(check int) "empty in, empty out" 0
    (Erm.Relation.cardinal report.integrated);
  Alcotest.(check int) "no conflicts" 0 (List.length report.conflicts);
  (* No key-matched pairs to compare: assess has no ground to distrust. *)
  List.iter
    (fun (_, a) -> Alcotest.check feq "reliability stays 1" 1.0 a)
    report.reliabilities;
  let a = Integration.Reliability.assess (Erm.Relation.empty edge_schema)
      (Erm.Relation.empty edge_schema) in
  Alcotest.(check int) "nothing compared" 0 a.Integration.Reliability.pairs_compared;
  Alcotest.check feq "vacuous assessment is trusted" 1.0
    (Integration.Reliability.reliability_of_assessment a)

let test_multi_all_conflicting () =
  (* Certain, disjoint evidence on every shared key: mean κ = 1, so each
     source estimates reliability 0 and α-discounting erases both — the
     sn = 0 tuples are dropped by closure, not stored. *)
  let low = edge_src "low" [ edge_tup "x" "[low^1]" ] in
  let high = edge_src "high" [ edge_tup "x" "[high^1]" ] in
  let a =
    Integration.Reliability.assess low.Integration.Multi.source_relation
      high.Integration.Multi.source_relation
  in
  Alcotest.check feq "mean kappa is 1" 1.0 a.Integration.Reliability.mean_conflict;
  Alcotest.check feq "reliability collapses to 0" 0.0
    (Integration.Reliability.reliability_of_assessment a);
  let report = Integration.Multi.integrate ~discount:true [ low; high ] in
  List.iter
    (fun (_, alpha) -> Alcotest.check feq "alpha 0" 0.0 alpha)
    report.reliabilities;
  Alcotest.(check int) "total distrust erases the federation" 0
    (Erm.Relation.cardinal report.integrated);
  Alcotest.(check bool) "closure still holds (vacuously)" true
    (Erm.Relation.satisfies_cwa report.integrated);
  (* An alpha floor keeps the tuple, maximally hedged but present. *)
  let floored =
    Integration.Multi.integrate ~discount:true ~alpha_floor:0.05 [ low; high ]
  in
  Alcotest.(check int) "floored run keeps the entity" 1
    (Erm.Relation.cardinal floored.integrated);
  Alcotest.(check bool) "and satisfies closure non-vacuously" true
    (Erm.Relation.satisfies_cwa floored.integrated)

let test_discount_boundaries () =
  let r =
    Erm.Relation.of_tuples edge_schema
      [ edge_tup ~tm:(S.make ~sn:0.4 ~sp:0.9) "x" "[low^0.7; ~^0.3]" ]
  in
  Alcotest.(check bool) "alpha 1 is the identity" true
    (Erm.Relation.equal (Integration.Reliability.discount_relation 1.0 r) r);
  let vacuous = Integration.Reliability.discount_relation 0.0 r in
  Alcotest.(check int) "alpha 0 discounts membership to sn 0, closure drops all"
    0
    (Erm.Relation.cardinal vacuous);
  let half = Integration.Reliability.discount_relation 0.5 r in
  let t = Erm.Relation.find half [ V.string "x" ] in
  Alcotest.check feq "sn scales by alpha" 0.2 (S.sn (Erm.Etuple.tm t));
  Alcotest.check feq "sp moves toward full plausibility" 0.95
    (S.sp (Erm.Etuple.tm t));
  let invalid a () = ignore (Integration.Reliability.discount_relation a r) in
  Alcotest.check_raises "negative alpha rejected"
    (Invalid_argument "Reliability.discount_relation: alpha outside [0,1]")
    (invalid (-0.1));
  Alcotest.check_raises "alpha above 1 rejected"
    (Invalid_argument "Reliability.discount_relation: alpha outside [0,1]")
    (invalid 1.1)

let test_multi_prior_validation () =
  let low = edge_src "low" [ edge_tup "x" "[low^1]" ] in
  let high = edge_src "high" [ edge_tup "x" "[high^0.5; ~^0.5]" ] in
  let report =
    Integration.Multi.integrate ~prior:[ ("low", 0.5) ] [ low; high ]
  in
  Alcotest.check feq "prior flows into the reported reliability" 0.5
    (List.assoc "low" report.reliabilities);
  Alcotest.check feq "unlisted sources default to 1" 1.0
    (List.assoc "high" report.reliabilities);
  Alcotest.check_raises "prior outside [0,1]"
    (Invalid_argument "Multi.integrate: prior for low outside [0,1]")
    (fun () ->
      ignore (Integration.Multi.integrate ~prior:[ ("low", 1.5) ] [ low; high ]));
  Alcotest.check_raises "floor outside [0,1]"
    (Invalid_argument "Multi.integrate: alpha_floor outside [0,1]")
    (fun () ->
      ignore (Integration.Multi.integrate ~alpha_floor:(-1.0) [ low; high ]))

let () =
  Alcotest.run "integration"
    [ ( "survey",
        [ Alcotest.test_case "paper tally" `Quick test_survey_paper_tally;
          Alcotest.test_case "set votes and abstentions" `Quick
            test_survey_set_votes_and_abstentions;
          Alcotest.test_case "consensus" `Quick test_survey_consensus;
          Alcotest.test_case "errors" `Quick test_survey_errors ] );
      ( "mapping",
        [ Alcotest.test_case "exact" `Quick test_mapping_exact;
          Alcotest.test_case "ambiguous" `Quick test_mapping_ambiguous;
          Alcotest.test_case "weighted" `Quick test_mapping_weighted;
          Alcotest.test_case "table" `Quick test_mapping_table;
          Alcotest.test_case "identity and compose" `Quick
            test_mapping_identity_and_compose ] );
      ( "preprocess",
        [ Alcotest.test_case "run" `Quick test_preprocess_run;
          Alcotest.test_case "errors" `Quick test_preprocess_errors;
          Alcotest.test_case "survey rule" `Quick test_preprocess_survey_rule
        ] );
      ( "entity-id",
        [ Alcotest.test_case "by key (paper data)" `Quick
            test_entity_id_by_key;
          Alcotest.test_case "match support" `Quick test_match_support;
          Alcotest.test_case "by similarity" `Quick test_by_similarity;
          Alcotest.test_case "levenshtein" `Quick test_levenshtein;
          Alcotest.test_case "fuzzy witnesses" `Quick test_fuzzy_witness ] );
      ( "merge-pipeline",
        [ Alcotest.test_case "merge reproduces Table 4" `Quick
            test_merge_by_key_paper;
          Alcotest.test_case "similarity merge rekeys" `Quick
            test_merge_of_matching_rekeys;
          Alcotest.test_case "pipeline end to end" `Quick
            test_pipeline_end_to_end ] );
      ( "multi",
        [ Alcotest.test_case "two sources = Table 4" `Quick
            test_multi_two_sources_match_union;
          Alcotest.test_case "order independence" `Quick
            test_multi_three_sources_order_independent;
          Alcotest.test_case "discounting keeps conflicting tuples" `Quick
            test_multi_discounted_keeps_conflicting_tuple;
          Alcotest.test_case "no sources" `Quick test_multi_no_sources ] );
      ( "multi-edges",
        [ Alcotest.test_case "single source" `Quick test_multi_single_source;
          Alcotest.test_case "single source drops sn = 0" `Quick
            test_multi_single_source_cwa;
          Alcotest.test_case "empty relations" `Quick
            test_multi_empty_relations;
          Alcotest.test_case "all-conflicting sources" `Quick
            test_multi_all_conflicting;
          Alcotest.test_case "discount boundaries" `Quick
            test_discount_boundaries;
          Alcotest.test_case "prior and floor validation" `Quick
            test_multi_prior_validation ] ) ]
