(* A full-system scenario at moderate scale: three synthetic sources
   about the same 400 entities — one clean, one noisy re-observation,
   one with misaligned keys — are preprocessed, matched, merged
   (discounted and not), queried, summarized, persisted and reloaded.
   The point is cross-module invariants, not single-module behaviour. *)

module V = Dst.Value
module S = Dst.Support
module R = Workload.Rng
module G = Workload.Gen

let schema = G.schema ~definite:2 ~evidential:2 ~domain_size:10 "census"

(* Source 1: the reference observation. *)
let source1 = G.relation (R.create 1001) ~size:400 schema

(* Source 2: an independent re-observation of the same entities. *)
let source2 = G.reobserve (R.create 2002) source1

(* Source 3: same entities, keys prefixed differently (a source whose
   identifiers do not align), to exercise similarity matching. *)
let source3 =
  let re = G.reobserve (R.create 3003) source1 in
  Erm.Relation.fold
    (fun t acc ->
      let key =
        match Erm.Etuple.key t with
        | [ V.String k ] -> [ V.string ("ext-" ^ k) ]
        | other -> other
      in
      Erm.Relation.add acc
        (Erm.Etuple.make schema ~key ~cells:(Erm.Etuple.cells t)
           ~tm:(Erm.Etuple.tm t)))
    re (Erm.Relation.empty schema)

let merged = Integration.Merge.by_key source1 source2

let test_merge_scale () =
  Alcotest.(check int) "all 400 entities integrated" 400
    (Erm.Relation.cardinal merged.integrated);
  Alcotest.(check int) "every pair merged" 400 merged.merged_count;
  Alcotest.(check int) "no conflicts (omega floor)" 0
    (List.length merged.conflicts);
  Alcotest.(check bool) "CWA everywhere" true
    (Erm.Relation.satisfies_cwa merged.integrated)

let test_merge_sharpens () =
  (* Dempster combination reduces ignorance: the merged relation's
     pooled Ω mass on e0 must not exceed either source's. *)
  let omega_share r =
    let pooled = Erm.Summarize.pool_evidence r "e0" in
    Dst.Mass.F.mass pooled (Dst.Domain.values (Dst.Mass.F.frame pooled))
  in
  Alcotest.(check bool) "omega mass shrinks vs source1" true
    (omega_share merged.integrated <= omega_share source1 +. 1e-9);
  Alcotest.(check bool) "omega mass shrinks vs source2" true
    (omega_share merged.integrated <= omega_share source2 +. 1e-9)

let test_similarity_bridge () =
  (* Source 3's keys do not align; its definite attributes do. Match on
     them and merge the matching. *)
  let witnesses =
    [ Integration.Entity_id.exact_witness ~reliability:0.95 "a0";
      Integration.Entity_id.exact_witness ~reliability:0.95 "a1" ]
  in
  let matching =
    Integration.Entity_id.by_similarity ~threshold:0.9 ~witnesses
      merged.integrated source3
  in
  (* Definite cells are random "a0-<n>" strings with n < 1000: distinct
     entities rarely collide on both, and true pairs always match. *)
  Alcotest.(check bool) "most entities re-identified" true
    (List.length matching.matched > 350);
  let bridged = Integration.Merge.of_matching schema matching in
  Alcotest.(check int) "nothing lost overall" 400
    (Erm.Relation.cardinal bridged.integrated
    + List.length bridged.conflicts
    - bridged.right_only);
  Alcotest.(check bool) "CWA after the bridge" true
    (Erm.Relation.satisfies_cwa bridged.integrated)

let test_queries_consistent () =
  let env = [ ("db", merged.integrated) ] in
  let q =
    "SELECT k, e0 FROM db WHERE e0 IS {v0, v1, v2} WITH SN > 0.5 ORDER BY SN \
     DESC LIMIT 25"
  in
  let limited = Query.Eval.run env q in
  Alcotest.(check bool) "limit respected" true
    (Erm.Relation.cardinal limited <= 25);
  (* Every returned tuple must individually pass the threshold. *)
  Erm.Relation.iter
    (fun t ->
      if S.sn (Erm.Etuple.tm t) <= 0.5 then
        Alcotest.failf "tuple below threshold: %g" (S.sn (Erm.Etuple.tm t)))
    limited;
  (* The optimizer must agree at this scale too. *)
  let q2 =
    Query.Parser.parse
      "SELECT * FROM (SELECT * FROM db WHERE e0 IS {v3}) WHERE e1 IS {v4, \
       v5} WITH SP >= 0.3"
  in
  Alcotest.(check bool) "optimized = naive on the big relation" true
    (Erm.Relation.equal (Query.Eval.eval env q2)
       (Query.Plan.eval_optimized env q2))

let test_incremental_replay () =
  (* Absorbing source2 into source1 key by key lands on the same
     relation as the batch merge. *)
  let streamed, _, _ =
    Integration.Multi.absorb_delta ~into:source1
      { Integration.Multi.source_name = "source2"; source_relation = source2 }
  in
  Alcotest.(check bool) "stream = batch" true
    (Erm.Relation.equal streamed merged.integrated)

let test_summaries_scale () =
  let sn, sp = Erm.Summarize.cardinality_interval merged.integrated in
  Alcotest.(check bool) "interval brackets the count" true
    (0.0 < sn && sn <= sp +. 1e-9 && sp <= 400.0 +. 1e-9);
  let hist = Erm.Summarize.pignistic_histogram merged.integrated "e1" in
  Alcotest.(check (float 1e-6)) "histogram sums to 1" 1.0
    (List.fold_left (fun acc (_, p) -> acc +. p) 0.0 hist)

let test_index_at_scale () =
  let idx = Erm.Index.build merged.integrated "a0" in
  (* Probe with a value known to exist. *)
  let some_value =
    match Erm.Relation.tuples merged.integrated with
    | t :: _ -> Erm.Etuple.definite_value schema t "a0"
    | [] -> Alcotest.fail "empty relation"
  in
  let via_index = Erm.Index.select_eq idx merged.integrated some_value in
  let via_scan =
    Erm.Ops.select
      (Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "a0")
         (Erm.Predicate.Const (Erm.Etuple.Definite some_value)))
      merged.integrated
  in
  Alcotest.(check bool) "index = scan at scale" true
    (Erm.Relation.equal via_index via_scan)

let test_persist_reload () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eridb_scenario_%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let catalog =
        Store.Catalog.put (Store.Catalog.create dir) "census" merged.integrated
      in
      Store.Catalog.commit catalog;
      let reloaded = Store.Catalog.get (Store.Catalog.load dir) "census" in
      Alcotest.(check bool) "400-tuple relation survives disk" true
        (Erm.Relation.equal reloaded merged.integrated))

let () =
  Alcotest.run "scenario"
    [ ( "census",
        [ Alcotest.test_case "merge at scale" `Quick test_merge_scale;
          Alcotest.test_case "merge sharpens evidence" `Quick
            test_merge_sharpens;
          Alcotest.test_case "similarity bridges foreign keys" `Quick
            test_similarity_bridge;
          Alcotest.test_case "queries and optimizer" `Quick
            test_queries_consistent;
          Alcotest.test_case "incremental replay" `Quick
            test_incremental_replay;
          Alcotest.test_case "summaries" `Quick test_summaries_scale;
          Alcotest.test_case "index" `Quick test_index_at_scale;
          Alcotest.test_case "persist and reload" `Quick test_persist_reload
        ] ) ]
