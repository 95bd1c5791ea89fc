(* Benchmark harness: one Bechamel test per paper artifact (Tables 2-5,
   Figures 1 and 3, the §2.1/§2.2 computations) plus scaling sweeps and
   baseline comparisons on synthetic workloads.

   Before timing anything, each artifact is regenerated once and checked
   against the paper so a broken build cannot produce plausible-looking
   numbers. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                    *)

let table2 () =
  Erm.Ops.select
    ~threshold:(Erm.Threshold.sn_gt 0.0)
    (Erm.Predicate.is_values "speciality" [ "si" ])
    Paperdata.r_a

let table3 () =
  Erm.Ops.select
    ~threshold:(Erm.Threshold.sn_gt 0.0)
    Erm.Predicate.(
      is_values "speciality" [ "mu" ] &&& is_values "rating" [ "ex" ])
    Paperdata.r_a

let table4 () = Erm.Ops.union Paperdata.r_a Paperdata.r_b
let table5 () = Erm.Ops.project Paperdata.table5_attrs Paperdata.r_a

let figure1_env = [ ("ra", Paperdata.r_a); ("rb", Paperdata.r_b) ]

let figure1_query =
  "SELECT * FROM (ra UNION rb) WHERE speciality IS {mu} AND rating IS {ex} \
   WITH SN > 0.5"

let figure1 () = Query.Eval.run figure1_env figure1_query

let verify () =
  let check name ok =
    Printf.printf "  [%s] %s\n" (if ok then "OK" else "FAIL") name;
    ok
  in
  let all =
    [ check "sec2.2 combination"
        (Dst.Mass.F.equal
           (Dst.Mass.F.combine Paperdata.wok_m1 Paperdata.wok_m2)
           Paperdata.wok_combined);
      check "table2" (Erm.Relation.equal (table2 ()) Paperdata.table2);
      check "table3" (Erm.Relation.equal (table3 ()) Paperdata.table3);
      check "table4" (Erm.Relation.equal (table4 ()) Paperdata.table4);
      check "table5" (Erm.Relation.equal (table5 ()) Paperdata.table5);
      check "figure1 query" (Erm.Relation.cardinal (figure1 ()) = 2) ]
  in
  if List.for_all (fun x -> x) all then
    print_endline "  all artifacts verified against the paper\n"
  else begin
    print_endline "  ARTIFACT VERIFICATION FAILED - timings would be lies";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Workload fixtures (built once, outside the timed closures)          *)

let rng = Workload.Rng.create 42

let evidence_with_focals =
  List.map
    (fun focals ->
      let dom = Workload.Gen.domain ~size:(2 * focals) "sweep" in
      let a = Workload.Gen.evidence rng ~focals ~max_focal_size:3 dom in
      let b = Workload.Gen.evidence rng ~focals ~max_focal_size:3 dom in
      (focals, a, b))
    [ 2; 4; 8; 16 ]

let sweep_schema = Workload.Gen.schema "sweep"

let relations_by_size =
  List.map
    (fun size -> (size, Workload.Gen.relation rng ~size sweep_schema))
    [ 100; 1000; 10000 ]

let union_pairs =
  List.map
    (fun overlap ->
      let a, b =
        Workload.Gen.source_pair rng ~size:1000 ~overlap sweep_schema
      in
      (overlap, a, b))
    [ 0.0; 0.5; 1.0 ]

let join_left = Workload.Gen.relation rng ~size:30 sweep_schema

let join_right =
  Erm.Ops.rename_attrs
    (fun n -> "r_" ^ n)
    (Workload.Gen.relation rng ~size:30 sweep_schema)

let baseline_pair =
  Workload.Gen.source_pair rng ~size:1000 ~overlap:0.5 sweep_schema

let pv_pair =
  let a, b = baseline_pair in
  ( Baselines.Partial_value.relation_of_extended a,
    Baselines.Partial_value.relation_of_extended b )

let ppv_pair =
  let a, b = baseline_pair in
  ( Baselines.Prob_partial.relation_of_extended a,
    Baselines.Prob_partial.relation_of_extended b )

let is_pred = Erm.Predicate.is_values "e0" [ "v0"; "v1" ]

let theta_pred =
  Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "e0")
    (Erm.Predicate.Field "e1")

let supports =
  (Dst.Support.make ~sn:0.5 ~sp:0.8, Dst.Support.make ~sn:0.6 ~sp:1.0)

(* Ablation fixtures *)

module Mq = Dst.Mass.Make (Dst.Num.Rational)

let rational_pair =
  let frame = Dst.Mass.F.frame Paperdata.wok_m1 in
  ( Mq.make frame Paperdata.sec22_m1_exact,
    Mq.make frame Paperdata.sec22_m2_exact )

let theta_operands =
  let dom = Workload.Gen.domain ~size:12 "theta" in
  let a = Workload.Gen.evidence rng ~focals:6 ~max_focal_size:4 dom in
  let b = Workload.Gen.evidence rng ~focals:6 ~max_focal_size:4 dom in
  ( Erm.Predicate.Const (Erm.Etuple.Evidence a),
    Erm.Predicate.Const (Erm.Etuple.Evidence b) )

let ablation_sources =
  Workload.Gen.source_pair rng ~size:500 ~overlap:0.5 sweep_schema

let pushdown_env =
  let a = Workload.Gen.relation rng ~size:60 sweep_schema in
  let b =
    Erm.Ops.rename_attrs (fun n -> "r_" ^ n)
      (Workload.Gen.relation rng ~size:60 sweep_schema)
  in
  [ ("wa", a); ("wb", b) ]

let pushdown_query =
  Query.Parser.parse
    "SELECT * FROM (wa JOIN wb ON e0 = r_e0) WHERE e1 IS {v0, v1} AND r_e1 \
     IS {v2, v3}"

let pushdown_optimized = Query.Plan.optimize pushdown_env pushdown_query

let coarse_frame = Workload.Gen.domain ~size:4 "coarse"
let fine_frame = Workload.Gen.domain ~size:16 "fine"

let refining =
  Dst.Refinement.make ~coarse:coarse_frame ~fine:fine_frame (fun v ->
      match v with
      | Dst.Value.String s ->
          let base =
            4 * int_of_string (String.sub s 1 (String.length s - 1))
          in
          Dst.Vset.of_strings
            (List.init 4 (fun i -> "v" ^ string_of_int (base + i)))
      | _ -> assert false)

let coarse_evidence =
  Workload.Gen.evidence rng ~focals:3 ~max_focal_size:2 coarse_frame

let skew_dom = Workload.Gen.domain ~size:16 "skewed"

let skew_pairs =
  List.map
    (fun zipf_skew ->
      let mk () =
        Workload.Gen.evidence rng ~focals:4 ~max_focal_size:3 ~zipf_skew
          skew_dom
      in
      (zipf_skew, List.init 64 (fun _ -> (mk (), mk ()))))
    [ 0.0; 1.2 ]

let indexed_relation = Workload.Gen.relation rng ~size:10000 sweep_schema
let city_index = Erm.Index.build indexed_relation "a0"

let index_probe =
  (* Some value that actually occurs. *)
  match Erm.Relation.tuples indexed_relation with
  | t :: _ ->
      Erm.Etuple.definite_value
        (Erm.Relation.schema indexed_relation)
        t "a0"
  | [] -> assert false

let index_scan_pred =
  Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "a0")
    (Erm.Predicate.Const (Erm.Etuple.Definite index_probe))

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)

let t name f = Test.make ~name (Staged.stage f)

let artifact_tests =
  [ t "sec2.1:bel-pls" (fun () ->
        Dst.Mass.F.interval Paperdata.wok_m1
          (Dst.Vset.of_strings [ "ca"; "hu"; "si" ]));
    t "sec2.2:combine" (fun () ->
        Dst.Mass.F.combine Paperdata.wok_m1 Paperdata.wok_m2);
    t "table2:selection" table2;
    t "table3:compound-selection" table3;
    t "table4:extended-union" table4;
    t "table5:projection" table5;
    t "figure1:pipeline-query" figure1;
    t "figure1:merge-with-report" (fun () ->
        Integration.Merge.by_key Paperdata.r_a Paperdata.r_b);
    t "figure3:f-ss+f-tm" (fun () ->
        let tuple =
          Erm.Relation.find Paperdata.r_a [ Dst.Value.string "garden" ]
        in
        let support =
          Erm.Predicate.eval Paperdata.schema tuple
            (Erm.Predicate.is_values "speciality" [ "si" ])
        in
        Dst.Support.f_tm (Erm.Etuple.tm tuple) support) ]

let combine_sweep =
  List.map
    (fun (focals, a, b) ->
      t (Printf.sprintf "sweep:combine-focals-%02d" focals) (fun () ->
          Dst.Mass.F.combine a b))
    evidence_with_focals

let rules_sweep =
  let _, a, b = List.nth evidence_with_focals 2 in
  [ t "rules:dempster" (fun () -> Dst.Mass.F.combine a b);
    t "rules:yager" (fun () -> Dst.Mass.F.combine_yager a b);
    t "rules:dubois-prade" (fun () -> Dst.Mass.F.combine_dubois_prade a b);
    t "rules:average" (fun () -> Dst.Mass.F.combine_average a b);
    t "rules:disjunctive" (fun () -> Dst.Mass.F.combine_disjunctive a b) ]

let select_sweep =
  List.concat_map
    (fun (size, r) ->
      [ t (Printf.sprintf "sweep:select-is-%05d" size) (fun () ->
            Erm.Ops.select is_pred r);
        t (Printf.sprintf "sweep:select-theta-%05d" size) (fun () ->
            Erm.Ops.select theta_pred r) ])
    relations_by_size

let union_sweep =
  List.map
    (fun (overlap, a, b) ->
      t (Printf.sprintf "sweep:union-1000-overlap-%.1f" overlap) (fun () ->
          Erm.Ops.union a b))
    union_pairs

let join_tests =
  [ t "sweep:product-30x30" (fun () -> Erm.Ops.product join_left join_right);
    t "sweep:join-30x30" (fun () ->
        Erm.Ops.join
          (Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "e0")
             (Erm.Predicate.Field "r_e0"))
          join_left join_right) ]

let baseline_tests =
  let a, b = baseline_pair in
  let pa, pb = pv_pair in
  let qa, qb = ppv_pair in
  [ t "baseline:ds-union-1000" (fun () -> Erm.Ops.union a b);
    t "baseline:partial-value-union-1000" (fun () ->
        Baselines.Partial_value.union pa pb);
    t "baseline:prob-partial-union-1000" (fun () ->
        Baselines.Prob_partial.union qa qb) ]

let query_tests =
  [ t "query:parse" (fun () -> Query.Parser.parse figure1_query);
    t "query:optimize" (fun () ->
        Query.Plan.optimize figure1_env (Query.Parser.parse figure1_query));
    t "query:evidence-parse" (fun () ->
        Dst.Evidence.of_string Paperdata.speciality
          "[si^0.5; {hu,si}^0.25; ~^0.25]") ]

let support_tests =
  let s1, s2 = supports in
  [ t "support:f-tm" (fun () -> Dst.Support.f_tm s1 s2);
    t "support:dempster" (fun () -> Dst.Support.combine s1 s2) ]

(* Ablations: design choices DESIGN.md calls out, measured head to head. *)

let ablation_tests =
  let a, b = ablation_sources in
  let q1, q2 = rational_pair in
  let ta, tb = theta_operands in
  let pred_ff = Erm.Predicate.Theta (Erm.Predicate.Le, ta, tb) in
  let pred_fe = Erm.Predicate.Theta_fe (Erm.Predicate.Le, ta, tb) in
  let garden = Erm.Relation.find Paperdata.r_a [ Dst.Value.string "garden" ] in
  [ t "ablation:merge-plain" (fun () -> Integration.Merge.by_key a b);
    t "ablation:merge-discounted" (fun () ->
        Integration.Reliability.merge_discounted ~alpha_left:0.9
          ~alpha_right:0.9 a b);
    t "ablation:merge-assess-then-discount" (fun () ->
        Integration.Reliability.merge_discounted a b);
    t "ablation:combine-float" (fun () ->
        Dst.Mass.F.combine Paperdata.wok_m1 Paperdata.wok_m2);
    t "ablation:combine-exact-rational" (fun () -> Mq.combine q1 q2);
    t "ablation:query-naive" (fun () ->
        Query.Eval.eval pushdown_env pushdown_query);
    t "ablation:query-optimized" (fun () ->
        Query.Eval.eval pushdown_env pushdown_optimized);
    t "ablation:theta-forall-forall" (fun () ->
        Erm.Predicate.eval Paperdata.schema garden pred_ff);
    t "ablation:theta-forall-exists" (fun () ->
        Erm.Predicate.eval Paperdata.schema garden pred_fe);
    t "ablation:refine-evidence" (fun () ->
        Dst.Refinement.refine refining coarse_evidence);
    t "ablation:rank-top10-of-500" (fun () -> Erm.Rank.top 10 a);
    t "ablation:select-eq-scan-10000" (fun () ->
        Erm.Ops.select index_scan_pred indexed_relation);
    t "ablation:select-eq-index-10000" (fun () ->
        Erm.Index.select_eq city_index indexed_relation index_probe);
    t "ablation:combine-approximated-16-to-6" (fun () ->
        let _, a16, b16 = List.nth evidence_with_focals 3 in
        Dst.Mass.F.combine
          (Dst.Mass.F.approximate ~max_focals:6 a16)
          (Dst.Mass.F.approximate ~max_focals:6 b16));
    t "ablation:summarize-pool-500" (fun () ->
        Erm.Summarize.pool_evidence a "e0") ]
  @ List.map
      (fun (skew, pairs) ->
        t (Printf.sprintf "sweep:union-evidence-skew-%.1f" skew) (fun () ->
            List.iter
              (fun (x, y) -> ignore (Dst.Mass.F.combine x y))
              pairs))
      skew_pairs

let federated_tests =
  let a, b = baseline_pair in
  let pred = Erm.Predicate.is_values "e0" [ "v0" ] in
  let threshold = Erm.Threshold.sn_gt 0.2 in
  [ t "federated:merge-first-1000" (fun () ->
        Integration.Federated.merge_first ~threshold pred a b);
    t "federated:select-first-1000" (fun () ->
        Integration.Federated.select_first ~threshold pred a b) ]

(* ------------------------------------------------------------------ *)
(* Span capture for the BENCH_*.json artifacts                         *)

(* Timed loops all run with tracing off (the disabled guard is the
   production configuration); afterwards one representative execution
   is repeated with spans on and its per-operator summary is embedded
   next to the timings. *)
let traced_spans f =
  Obs.Trace.clear Obs.Trace.default;
  Obs.Trace.enable Obs.Trace.default;
  (match f () with () -> () | exception _ -> ());
  let summary = Obs.Trace.summary Obs.Trace.default in
  Obs.Trace.disable Obs.Trace.default;
  Obs.Trace.clear Obs.Trace.default;
  summary

let spans_json summary =
  String.concat ",\n"
    (List.map
       (fun (name, count, total_ms) ->
         Printf.sprintf
           "    { \"op\": \"%s\", \"count\": %d, \"total_ms\": %.3f }" name
           count total_ms)
       summary)

(* ------------------------------------------------------------------ *)
(* Fault-tolerant federation: latency and result quality vs fault rate *)

(* federated:faulty — the degradation runtime over four 500-tuple
   sources at increasing failure/corruption rates. Latency is wall
   clock (the clock inside the runtime is virtual, so injected latency
   and backoff cost nothing real); quality is the largest |Δsn| of any
   key shared with the fault-free reference plus the count of entities
   lost to failed or truncated sources. Deterministic: fixed seeds.
   Results go to stdout and BENCH_federation.json. *)
let federation_fault_sweep () =
  let time f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    let rec go n =
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < 0.2 && n < 1000 then go (n + 1) else dt /. float_of_int n *. 1e9
    in
    go 1
  in
  let fed_rng = Workload.Rng.create 4242 in
  let fed_schema = Workload.Gen.schema "faulty" in
  let a, b = Workload.Gen.source_pair fed_rng ~size:500 ~overlap:0.6 fed_schema in
  let c = Workload.Gen.reobserve fed_rng a in
  let d = Workload.Gen.reobserve fed_rng b in
  let rels = [ ("fa", a); ("fb", b); ("fc", c); ("fd", d) ] in
  let reference =
    Integration.Multi.integrate
      (List.map
         (fun (n, r) ->
           { Integration.Multi.source_name = n; source_relation = r })
         rels)
  in
  let config =
    { Federation.Degrade.default with
      policy =
        { Federation.Retry.default with retries = 3; deadline_ms = Some 500.0 };
      min_sources = 1 }
  in
  let run_once fail_rate seed =
    let clock = Federation.Clock.simulated () in
    let spec =
      { Federation.Fault.none with
        fail_rate;
        corrupt_rate = fail_rate /. 2.0;
        drop_rate = 0.3;
        latency_ms = 5.0 }
    in
    let sources =
      List.map
        (fun (n, r) ->
          Federation.Fault.wrap ~seed ~clock spec
            (Federation.Source.of_relation ~name:n r))
        rels
    in
    Federation.Degrade.integrate ~config ~seed ~clock sources
  in
  print_endline
    "federated:faulty (4 sources x 500 tuples, quality vs fault-free \
     reference):";
  let rows =
    List.map
      (fun fail_rate ->
        let ns = time (fun () -> run_once fail_rate 1) in
        (* Quality over 20 seeded chaos runs: worst sn deviation on
           surviving keys, mean entity loss. *)
        let seeds = List.init 20 (fun i -> i + 1) in
        let gaps, losses =
          List.fold_left
            (fun (gaps, losses) seed ->
              match run_once fail_rate seed with
              | Error _ -> (gaps, losses +. 1.0)
              | Ok report ->
                  let integrated =
                    report.Federation.Degrade.multi.integrated
                  in
                  let gap =
                    Erm.Relation.fold
                      (fun t acc ->
                        match
                          Erm.Relation.find_opt integrated (Erm.Etuple.key t)
                        with
                        | None -> acc
                        | Some t' ->
                            Float.max acc
                              (Float.abs
                                 (Dst.Support.sn (Erm.Etuple.tm t)
                                 -. Dst.Support.sn (Erm.Etuple.tm t'))))
                      reference.Integration.Multi.integrated 0.0
                  in
                  let lost =
                    Erm.Relation.cardinal reference.Integration.Multi.integrated
                    - Erm.Relation.cardinal integrated
                  in
                  (Float.max gaps gap, losses +. float_of_int (max 0 lost)))
            (0.0, 0.0) seeds
        in
        let mean_lost = losses /. float_of_int (List.length seeds) in
        Printf.printf
          "  fail=%.1f  %10.0f ns/run  max sn gap %.4f  mean entities lost \
           %.1f\n\
           %!"
          fail_rate ns gaps mean_lost;
        (fail_rate, ns, gaps, mean_lost))
      [ 0.0; 0.2; 0.5; 0.8 ]
  in
  let spans = traced_spans (fun () -> ignore (run_once 0.5 1)) in
  let oc = open_out "BENCH_federation.json" in
  Printf.fprintf oc
    "{\n  \"federation_fault_sweep\": [\n%s\n  ],\n  \"spans\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (fail_rate, ns, gap, lost) ->
            Printf.sprintf
              "    { \"fail_rate\": %.2f, \"ns_per_run\": %.0f, \
               \"max_sn_gap\": %.4f, \"mean_entities_lost\": %.1f }"
              fail_rate ns gap lost)
          rows))
    (spans_json spans);
  close_out oc;
  print_endline "  wrote BENCH_federation.json\n"

(* ------------------------------------------------------------------ *)
(* Join scaling: indexed vs nested loop, sizes 10^2 .. 10^6, plus the  *)
(* 4-shard executor's worker curve                                      *)

(* Bechamel's quota-driven repetition would take hours on the 10^8-pair
   nested loop, so this sweep uses a plain wall-clock timer: repeat
   until 0.2 s has elapsed (one warm-up run discarded), a single run for
   anything that already takes longer. The nested loop is only run up to
   10^4 (10^8 pairs); above that its column is null. Results go to
   stdout and BENCH_join.json. *)
let wall_time f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  let rec go n =
    ignore (f ());
    let dt = Unix.gettimeofday () -. t0 in
    if dt < 0.2 && n < 1000 then go (n + 1) else dt /. float_of_int n *. 1e9
  in
  go 1

let join_domain_counts = [ 1; 2; 4 ]

let join_scaling () =
  let key_eq =
    Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "k")
      (Erm.Predicate.Field "r_k")
  in
  let join_q = Query.Parser.parse "ja JOIN jb ON k = r_k" in
  print_endline "join-scaling (equi-join on the definite key, |out| = n):";
  let rows =
    List.map
      (fun size ->
        let a =
          Workload.Gen.relation
            (Workload.Rng.create (1000 + size))
            ~size sweep_schema
        in
        let b =
          Erm.Ops.rename_attrs
            (fun n -> "r_" ^ n)
            (Workload.Gen.relation
               (Workload.Rng.create (2000 + size))
               ~size sweep_schema)
        in
        let nested_ns =
          if size > 10_000 then None (* n^2 > 10^8 pairs: hours per run *)
          else if size >= 10_000 then begin
            (* single run: n^2 = 10^8 tuple pairs *)
            let t0 = Unix.gettimeofday () in
            ignore (Erm.Ops.join key_eq a b);
            Some ((Unix.gettimeofday () -. t0) *. 1e9)
          end
          else Some (wall_time (fun () -> Erm.Ops.join key_eq a b))
        in
        let indexed_ns =
          wall_time (fun () ->
              Erm.Ops.join_indexed ~left_attr:"k" ~right_attr:"r_k" a b)
        in
        (* The same equi-join fanned out over 4 shards (growing worker
           counts) — metrics/tracing are off here, so this measures the
           bare parallel configuration. *)
        let env = [ ("ja", a); ("jb", b) ] in
        let sharded_ns =
          List.map
            (fun domains ->
              ( domains,
                wall_time (fun () ->
                    Query.Physical.eval_fast
                      ~ctx:(Query.Physical.create_ctx ())
                      ~sharded:{ shards = 4; domains }
                      env join_q) ))
            join_domain_counts
        in
        let speedup = Option.map (fun n -> n /. indexed_ns) nested_ns in
        Printf.printf "  n=%-7d nested-loop %s  indexed %12.0f ns%s\n%!" size
          (match nested_ns with
          | Some ns -> Printf.sprintf "%14.0f ns" ns
          | None -> "     (skipped) ")
          indexed_ns
          (String.concat ""
             (List.map
                (fun (d, ns) -> Printf.sprintf "  shard4/dom%d %12.0f ns" d ns)
                sharded_ns));
        (size, nested_ns, indexed_ns, speedup, sharded_ns))
      [ 100; 1_000; 10_000; 100_000; 1_000_000 ]
  in
  (* Per-operator spans for a representative physical-plan execution of
     the same equi-join at n = 1000 (hash join + two scans). *)
  let spans =
    let a =
      Workload.Gen.relation (Workload.Rng.create 3000) ~size:1000 sweep_schema
    in
    let b =
      Erm.Ops.rename_attrs
        (fun n -> "r_" ^ n)
        (Workload.Gen.relation (Workload.Rng.create 4000) ~size:1000
           sweep_schema)
    in
    let env = [ ("ja", a); ("jb", b) ] in
    traced_spans (fun () ->
        ignore (Query.Physical.run env "ja JOIN jb ON k = r_k"))
  in
  let opt_ns = function
    | Some ns -> Printf.sprintf "%.0f" ns
    | None -> "null"
  in
  let opt_ratio = function
    | Some r -> Printf.sprintf "%.2f" r
    | None -> "null"
  in
  let oc = open_out "BENCH_join.json" in
  Printf.fprintf oc
    "{\n\
    \  \"join_scaling\": [\n\
     %s\n\
    \  ],\n\
    \  \"spans\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (String.concat ",\n"
       (List.map
          (fun (size, nested_ns, indexed_ns, speedup, sharded_ns) ->
            Printf.sprintf
              "    { \"size\": %d, \"nested_ns\": %s, \"indexed_ns\": %.0f, \
               \"speedup\": %s, \"sharded\": [%s] }"
              size (opt_ns nested_ns) indexed_ns (opt_ratio speedup)
              (String.concat ", "
                 (List.map
                    (fun (d, ns) ->
                      Printf.sprintf
                        "{ \"shards\": 4, \"domains\": %d, \"ns\": %.0f }" d ns)
                    sharded_ns)))
          rows))
    (spans_json spans);
  close_out oc;
  print_endline "  wrote BENCH_join.json\n"

(* ------------------------------------------------------------------ *)
(* Provenance overhead gate                                            *)

(* Three legs over the same Dempster-heavy workload (extended union of
   the 1000-tuple source pair): baseline (provenance never enabled),
   enabled (every combination records lineage), disabled again (guards
   compiled in, store off, arena reset). The gate compares min times:
   disabled / baseline must stay within 5%, i.e. recording must be
   strictly pay-for-use — flipping it on and off may not leave residual
   cost in the hot paths. Results go to BENCH_provenance.json; a
   breach exits non-zero so CI fails. *)
let provenance_gate () =
  let a, b = baseline_pair in
  let workload () = ignore (Erm.Ops.union a b) in
  let batch () =
    workload ();
    (* warm-up *)
    let t0 = Unix.gettimeofday () in
    let rec go n =
      workload ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < 0.05 && n < 1000 then go (n + 1) else dt /. float_of_int n *. 1e9
    in
    go 1
  in
  let time_leg () =
    List.fold_left
      (fun acc _ -> Float.min acc (batch ()))
      Float.max_float [ 1; 2; 3; 4; 5 ]
  in
  Obs.Provenance.disable ();
  Obs.Provenance.reset ();
  let baseline_ns = time_leg () in
  Obs.Provenance.enable ();
  Obs.Provenance.reset ();
  let enabled_ns = time_leg () in
  let nodes = Obs.Provenance.count () in
  Obs.Provenance.disable ();
  Obs.Provenance.reset ();
  let disabled_ns = time_leg () in
  let ratio = disabled_ns /. baseline_ns in
  let pass = ratio <= 1.05 in
  print_endline "provenance-gate (union-1000, min of 5 batches):";
  Printf.printf "  baseline (never enabled)  %12.0f ns/run\n" baseline_ns;
  Printf.printf "  enabled  (%8d nodes)  %12.0f ns/run\n" nodes enabled_ns;
  Printf.printf "  disabled (after reset)    %12.0f ns/run\n" disabled_ns;
  Printf.printf "  disabled/baseline ratio   %.3f (gate: <= 1.05) %s\n%!"
    ratio
    (if pass then "OK" else "FAIL");
  let oc = open_out "BENCH_provenance.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"union-1000\",\n\
    \  \"baseline_ns\": %.0f,\n\
    \  \"enabled_ns\": %.0f,\n\
    \  \"disabled_ns\": %.0f,\n\
    \  \"enabled_nodes\": %d,\n\
    \  \"disabled_over_baseline\": %.4f,\n\
    \  \"gate\": 1.05,\n\
    \  \"pass\": %b\n\
     }\n"
    baseline_ns enabled_ns disabled_ns nodes ratio pass;
  close_out oc;
  print_endline "  wrote BENCH_provenance.json\n";
  if not pass then begin
    print_endline
      "  PROVENANCE GATE FAILED - disabled evaluation regressed > 5%";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Incremental absorption vs full rebuild                              *)

(* The store's delta path folds one source update into the merged
   relation in O(changed entities) — Dempster's rule is associative, so
   the fold is bit-identical to rebuilding from scratch. This sweep
   quantifies what that buys: full rebuild vs Multi.absorb_delta at
   1%/10%/50% changed entities over 10^4..10^6-tuple relations.
   Results go to stdout and BENCH_incremental.json. *)
let incremental_sweep () =
  let schema = Workload.Gen.schema "inc" in
  print_endline "incremental absorption vs full rebuild:";
  let points = ref [] in
  List.iter
    (fun n ->
      let base =
        Workload.Gen.relation (Workload.Rng.create 42) ~size:n schema
      in
      List.iter
        (fun frac ->
          let k = max 1 (int_of_float (float_of_int n *. frac)) in
          let changed =
            Erm.Relation.of_tuples schema
              (List.filteri (fun i _ -> i < k) (Erm.Relation.tuples base))
          in
          let delta =
            Workload.Gen.reobserve (Workload.Rng.create (n + k)) changed
          in
          let src =
            { Integration.Multi.source_name = "d"; source_relation = delta }
          in
          let time f =
            let reps = if n <= 10_000 then 5 else 1 in
            let best = ref Float.max_float in
            for _ = 1 to 3 do
              let t0 = Unix.gettimeofday () in
              for _ = 1 to reps do
                f ()
              done;
              best :=
                Float.min !best
                  ((Unix.gettimeofday () -. t0) /. float_of_int reps)
            done;
            !best *. 1e9
          in
          let full_ns =
            time (fun () ->
                ignore
                  (Integration.Multi.integrate
                     [ { Integration.Multi.source_name = "m";
                         source_relation = base };
                       src ]))
          in
          let delta_ns =
            time (fun () ->
                ignore (Integration.Multi.absorb_delta ~into:base src))
          in
          Printf.printf
            "  n=%-8d changed=%-7d full %12.0f ns  delta %12.0f ns  \
             speedup %6.1fx\n\
             %!"
            n k full_ns delta_ns (full_ns /. delta_ns);
          points := (n, k, full_ns, delta_ns) :: !points)
        [ 0.01; 0.1; 0.5 ])
    [ 10_000; 100_000; 1_000_000 ];
  let oc = open_out "BENCH_incremental.json" in
  Printf.fprintf oc "{\n  \"workload\": \"delta-vs-full\",\n  \"points\": [\n";
  let rows = List.rev !points in
  List.iteri
    (fun i (n, k, full_ns, delta_ns) ->
      Printf.fprintf oc
        "    { \"n\": %d, \"changed\": %d, \"full_ns\": %.0f, \
         \"delta_ns\": %.0f, \"speedup\": %.1f }%s\n"
        n k full_ns delta_ns (full_ns /. delta_ns)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  print_endline "  wrote BENCH_incremental.json\n"

(* ------------------------------------------------------------------ *)
(* Store recovery overhead gate                                        *)

(* Opening a clean store always replays every committed record; with
   verification on it additionally CRC-checks each record and re-checks
   each upsert's key digest. The gate bounds what that integrity
   checking may cost on the clean-store fast path: verified open within
   5% of unverified open (min of 5 each, warm cache). Results go to
   BENCH_store_gate.json; a breach exits non-zero so CI fails. *)
let store_gate () =
  let schema = Workload.Gen.schema "gate" in
  let r = Workload.Gen.relation (Workload.Rng.create 11) ~size:10_000 schema in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eridb_bench_store_%d" (Unix.getpid ()))
  in
  ignore (Store.Estore.create ~dir ~name:"gate" r);
  let time_open ~verify =
    ignore (Store.Estore.open_store ~verify dir);
    (* warm-up *)
    List.fold_left
      (fun acc _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Store.Estore.open_store ~verify dir);
        Float.min acc ((Unix.gettimeofday () -. t0) *. 1e9))
      Float.max_float [ 1; 2; 3; 4; 5 ]
  in
  let unverified_ns = time_open ~verify:false in
  let verified_ns = time_open ~verify:true in
  let ratio = verified_ns /. unverified_ns in
  let pass = ratio <= 1.05 in
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir;
  print_endline "store-gate (open 10k-tuple store, min of 5):";
  Printf.printf "  unverified open           %12.0f ns/run\n" unverified_ns;
  Printf.printf "  verified open             %12.0f ns/run\n" verified_ns;
  Printf.printf "  verified/unverified       %.3f (gate: <= 1.05) %s\n%!"
    ratio
    (if pass then "OK" else "FAIL");
  let oc = open_out "BENCH_store_gate.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"open-10k\",\n\
    \  \"unverified_ns\": %.0f,\n\
    \  \"verified_ns\": %.0f,\n\
    \  \"verified_over_unverified\": %.4f,\n\
    \  \"gate\": 1.05,\n\
    \  \"pass\": %b\n\
     }\n"
    unverified_ns verified_ns ratio pass;
  close_out oc;
  print_endline "  wrote BENCH_store_gate.json\n";
  if not pass then begin
    print_endline
      "  STORE GATE FAILED - verified clean-store recovery regressed > 5% \
       over unverified open";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Whole-store sweep gate                                              *)

(* The S-check sweep is a batch job, but it must stay a *feasible*
   batch job: the gate builds a 100k-tuple store, runs the full
   catalog sweep under the metrics registry, and fails unless the
   sweep completes and every analysis.sweep.* counter is populated
   with the expected workload shape (1 run x |checks| checks x 100k
   tuples). Results go to BENCH_sweep_gate.json. *)
let sweep_gate () =
  let size = 100_000 in
  let schema = Workload.Gen.schema "gate" in
  let r = Workload.Gen.relation (Workload.Rng.create 17) ~size schema in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eridb_bench_sweep_%d" (Unix.getpid ()))
  in
  ignore (Store.Estore.create ~dir ~name:"gate" r);
  let store, _report = Store.Estore.open_store dir in
  let env = [ ("gate", r) ] in
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let t0 = Unix.gettimeofday () in
  let diags = Analysis.Sweep.run (Analysis.Sweep.subject ~store env) in
  let sweep_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let counter name = Obs.Metrics.counter ("analysis.sweep." ^ name) in
  let runs = counter "runs"
  and checks = counter "checks"
  and relations = counter "relations"
  and tuples = counter "tuples"
  and findings = counter "findings" in
  Obs.Metrics.disable ();
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir;
  let n_checks = List.length Analysis.Sweep.checks in
  let pass =
    runs = 1 && checks = n_checks && relations = 1 && tuples = size
    && findings = List.length diags
  in
  Printf.printf "sweep-gate (S-check sweep over a %dk-tuple store):\n"
    (size / 1000);
  Printf.printf "  sweep                     %12.0f ns  (%.1f ktuple/s)\n"
    sweep_ns
    (float_of_int size /. sweep_ns *. 1e6);
  Printf.printf
    "  metrics: runs=%d checks=%d relations=%d tuples=%d findings=%d %s\n%!"
    runs checks relations tuples findings
    (if pass then "OK" else "FAIL");
  let oc = open_out "BENCH_sweep_gate.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"sweep-100k\",\n\
    \  \"sweep_ns\": %.0f,\n\
    \  \"tuples\": %d,\n\
    \  \"checks\": %d,\n\
    \  \"findings\": %d,\n\
    \  \"pass\": %b\n\
     }\n"
    sweep_ns tuples checks findings pass;
  close_out oc;
  print_endline "  wrote BENCH_sweep_gate.json\n";
  if not pass then begin
    print_endline
      "  SWEEP GATE FAILED - analysis.sweep.* metrics did not reflect the \
       workload";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Observability overhead gate                                         *)

(* Telemetry must be strictly pay-for-use: after a fully-instrumented
   run (metrics + tracing + flight recorder over a 4-shard/4-worker
   execution), turning everything off again has to leave the hot paths at
   their never-observed cost — the guards are one boolean load each.
   Gate: disabled/baseline min times within 5%. The enabled leg also
   proves the clamp is gone: with metrics recording, domains = 4 must
   still run 4 workers (the exec.workers gauge says what the pool
   actually did). Results go to BENCH_obs.json; a breach exits non-zero
   so CI fails. *)
let obs_gate () =
  let a, b = baseline_pair in
  let env = [ ("ua", a); ("ub", b) ] in
  let q = Query.Parser.parse "ua UNION ub" in
  let sharded = { Query.Physical.shards = 4; domains = 4 } in
  let workload ctx () = ignore (Query.Physical.eval_fast ~ctx ~sharded env q) in
  let time_leg () =
    let ctx = Query.Physical.create_ctx () in
    (* A parallel run is tens of milliseconds with real scheduler
       jitter, so batches are long (several runs each) and the min is
       taken over more of them than the single-threaded gates need. *)
    let batch () =
      workload ctx ();
      (* warm-up *)
      let t0 = Unix.gettimeofday () in
      let rec go n =
        workload ctx ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < 0.3 && n < 1000 then go (n + 1) else dt /. float_of_int n *. 1e9
      in
      go 1
    in
    List.fold_left
      (fun acc _ -> Float.min acc (batch ()))
      Float.max_float [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  let baseline_ns = time_leg () in
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Obs.Trace.set_clock Obs.Trace.default (Obs.Clock.simulated ());
  Obs.Trace.enable Obs.Trace.default;
  Obs.Log.set_clock (Obs.Clock.simulated ());
  Obs.Log.enable ();
  let enabled_ns = time_leg () in
  let workers =
    match Obs.Metrics.last "exec.workers" with
    | Some w -> int_of_float w
    | None -> 0
  in
  let events = List.length (Obs.Log.events ()) in
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  Obs.Trace.disable Obs.Trace.default;
  Obs.Trace.clear Obs.Trace.default;
  Obs.Log.disable ();
  Obs.Log.clear ();
  let disabled_ns = time_leg () in
  let ratio = disabled_ns /. baseline_ns in
  let workers_ok = workers = 4 in
  let pass = ratio <= 1.05 && workers_ok in
  print_endline "obs-gate (sharded union-1000, shards=4 domains=4, min of 8):";
  Printf.printf "  baseline (never observed) %12.0f ns/run\n" baseline_ns;
  Printf.printf "  enabled  (m+t+log)        %12.0f ns/run (%d events)\n"
    enabled_ns events;
  Printf.printf "  disabled (after reset)    %12.0f ns/run\n" disabled_ns;
  Printf.printf "  workers with metrics on   %d (gate: = 4) %s\n" workers
    (if workers_ok then "OK" else "FAIL");
  Printf.printf "  disabled/baseline ratio   %.3f (gate: <= 1.05) %s\n%!"
    ratio
    (if ratio <= 1.05 then "OK" else "FAIL");
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"sharded-union-1000\",\n\
    \  \"shards\": 4,\n\
    \  \"domains\": 4,\n\
    \  \"baseline_ns\": %.0f,\n\
    \  \"enabled_ns\": %.0f,\n\
    \  \"disabled_ns\": %.0f,\n\
    \  \"workers_with_metrics\": %d,\n\
    \  \"flight_events\": %d,\n\
    \  \"disabled_over_baseline\": %.4f,\n\
    \  \"gate\": 1.05,\n\
    \  \"pass\": %b\n\
     }\n"
    baseline_ns enabled_ns disabled_ns workers events ratio pass;
  close_out oc;
  print_endline "  wrote BENCH_obs.json\n";
  if not pass then begin
    if not workers_ok then
      print_endline
        "  OBS GATE FAILED - metrics recording did not run 4 workers at \
         domains=4";
    if ratio > 1.05 then
      print_endline
        "  OBS GATE FAILED - disabled observability regressed > 5% over the \
         never-observed baseline";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Combination-rule policy-seam gate                                   *)

(* Every merge path now routes combinations through the κ-escalation
   seam (Mass.F.combine_policy) instead of calling the raw Dempster
   kernel directly. The gate times both over the same evidence pool and
   bounds what the default dempster-no-escalation policy may cost: the
   policy check is two field reads, so the seam must stay within 5% of
   the raw kernel. Results go to BENCH_rules_gate.json; a breach exits
   non-zero so CI fails. *)
let rules_gate () =
  let dom = Workload.Gen.domain ~size:8 "rulesgate" in
  let pairs =
    Array.init 200 (fun i ->
        let prng = Workload.Rng.create (1000 + i) in
        ( Workload.Gen.evidence prng ~omega_floor:0.05 dom,
          Workload.Gen.evidence prng ~omega_floor:0.05 dom ))
  in
  let raw () =
    Array.iter (fun (a, b) -> ignore (Dst.Mass.F.combine_opt a b)) pairs
  in
  let seam () =
    Array.iter
      (fun (a, b) ->
        ignore
          (Dst.Mass.F.combine_policy ~policy:Dst.Rule.dempster a b))
      pairs
  in
  let batch workload =
    workload ();
    (* warm-up *)
    let t0 = Unix.gettimeofday () in
    let rec go n =
      workload ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < 0.05 && n < 1000 then go (n + 1) else dt /. float_of_int n *. 1e9
    in
    go 1
  in
  let time_leg workload =
    List.fold_left
      (fun acc _ -> Float.min acc (batch workload))
      Float.max_float [ 1; 2; 3; 4; 5 ]
  in
  let raw_ns = time_leg raw in
  let seam_ns = time_leg seam in
  let ratio = seam_ns /. raw_ns in
  let pass = ratio <= 1.05 in
  print_endline "rules-gate (combine-200, min of 5 batches):";
  Printf.printf "  raw dempster kernel       %12.0f ns/run\n" raw_ns;
  Printf.printf "  policy seam (default)     %12.0f ns/run\n" seam_ns;
  Printf.printf "  seam/raw ratio            %.3f (gate: <= 1.05) %s\n%!"
    ratio
    (if pass then "OK" else "FAIL");
  let oc = open_out "BENCH_rules_gate.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"combine-200\",\n\
    \  \"raw_ns\": %.0f,\n\
    \  \"seam_ns\": %.0f,\n\
    \  \"seam_over_raw\": %.4f,\n\
    \  \"gate\": 1.05,\n\
    \  \"pass\": %b\n\
     }\n"
    raw_ns seam_ns ratio pass;
  close_out oc;
  print_endline "  wrote BENCH_rules_gate.json\n";
  if not pass then begin
    print_endline "  RULES GATE FAILED - policy seam regressed dempster > 5%";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Rule quality sweep over the adversarial scenario corpus             *)

(* Not a timing benchmark: a decision aid. Each rule (and a
   quarantining escalation policy) integrates the same
   adversarially-conflicting source pairs — Zadeh, near-total,
   one-against-many, dissenter, 50 rows each — and is scored on
   entity loss (fraction of rows dropped to total conflict or
   quarantine) and support gap (mean Pls - Bel of the best-supported
   hypothesis: how undecided the merged evidence stays). Dempster
   loses nothing but feigns certainty; quarantine trades rows for
   honesty; Yager keeps rows maximally undecided. Deterministic: fixed
   seeds. Results go to stdout and BENCH_rules.json. *)
let rules_quality_sweep () =
  let dom = Workload.Gen.domain ~size:8 "rulesq" in
  let rows = 50 in
  let policies =
    List.map
      (fun rule -> (Dst.Rule.to_string rule, Dst.Rule.make rule))
      (Dst.Rule.all @ [ Dst.Rule.discount_then_combine 0.9 ])
    @ [ ( "dempster->quarantine@0.9",
          Dst.Rule.make
            ~escalation:(Dst.Rule.escalate ~kappa0:0.9 Dst.Rule.Quarantine)
            Dst.Rule.Dempster );
        ( "dempster->yager@0.9",
          Dst.Rule.make
            ~escalation:
              (Dst.Rule.escalate ~kappa0:0.9
                 (Dst.Rule.Fallback Dst.Rule.Yager))
            Dst.Rule.Dempster ) ]
  in
  let singletons =
    List.map
      (fun v -> Dst.Vset.of_list [ v ])
      (Dst.Vset.to_list (Dst.Domain.values dom))
  in
  (* Mean over evidence cells of Pls - Bel on the best (max-Bel)
     singleton: 0 = decided, 1 = total ignorance about the winner. *)
  let support_gap rel =
    let total, n =
      List.fold_left
        (fun (total, n) t ->
          List.fold_left
            (fun (total, n) cell ->
              match cell with
              | Erm.Etuple.Definite _ -> (total, n)
              | Erm.Etuple.Evidence e ->
                  let best =
                    List.fold_left
                      (fun best s ->
                        if Dst.Mass.F.bel e s > Dst.Mass.F.bel e best then s
                        else best)
                      (List.hd singletons) singletons
                  in
                  ( total +. (Dst.Mass.F.pls e best -. Dst.Mass.F.bel e best),
                    n + 1 ))
            (total, n) (Erm.Etuple.cells t))
        (0.0, 0) (Erm.Relation.tuples rel)
    in
    if n = 0 then 0.0 else total /. float_of_int n
  in
  let score policy kind =
    let prng = Workload.Rng.create 424242 in
    let l, r = Workload.Scenario.source_pair prng ~rows kind dom in
    let merged, conflicts = Erm.Ops.union_report ~policy l r in
    let quarantined =
      List.length (List.filter Erm.Ops.is_quarantine conflicts)
    in
    let lost = rows - Erm.Relation.cardinal merged in
    ( float_of_int lost /. float_of_int rows,
      support_gap merged,
      quarantined )
  in
  print_endline "rules (entity loss / support gap over the conflict corpus):";
  Printf.printf "  %-26s" "";
  List.iter
    (fun kind -> Printf.printf " %16s" (Workload.Scenario.kind_name kind))
    Workload.Scenario.all_kinds;
  print_newline ();
  let rule_rows =
    List.map
      (fun (name, policy) ->
        let cells =
          List.map
            (fun kind ->
              let loss, gap, quarantined = score policy kind in
              (kind, loss, gap, quarantined))
            Workload.Scenario.all_kinds
        in
        Printf.printf "  %-26s" name;
        List.iter
          (fun (_, loss, gap, _) -> Printf.printf "  %5.2f / %6.4f" loss gap)
          cells;
        print_newline ();
        (name, cells))
      policies
  in
  print_newline ();
  let oc = open_out "BENCH_rules.json" in
  Printf.fprintf oc "{\n  \"rows_per_kind\": %d,\n  \"rules\": [\n" rows;
  List.iteri
    (fun i (name, cells) ->
      Printf.fprintf oc "    { \"rule\": \"%s\", \"kinds\": [\n" name;
      List.iteri
        (fun j (kind, loss, gap, quarantined) ->
          Printf.fprintf oc
            "      { \"kind\": \"%s\", \"entity_loss\": %.4f, \
             \"support_gap\": %.6f, \"quarantined\": %d }%s\n"
            (Workload.Scenario.kind_name kind)
            loss gap quarantined
            (if j = List.length cells - 1 then "" else ","))
        cells;
      Printf.fprintf oc "    ] }%s\n"
        (if i = List.length rule_rows - 1 then "" else ","))
    rule_rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  print_endline "  wrote BENCH_rules.json\n"

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)

let run_group (group_name, tests) =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let grouped = Test.make_grouped ~name:group_name tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "%s:\n" group_name;
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ ns ] -> Printf.printf "  %-42s %12.1f ns/run\n" name ns
         | Some _ | None -> Printf.printf "  %-42s (no estimate)\n" name);
  print_newline ()

let () =
  if Array.exists (String.equal "--provenance-gate") Sys.argv then begin
    (* CI mode: only the overhead gate, so the job stays fast. *)
    provenance_gate ();
    exit 0
  end;
  if Array.exists (String.equal "--store-gate") Sys.argv then begin
    (* CI mode: only the store recovery overhead gate. *)
    store_gate ();
    exit 0
  end;
  if Array.exists (String.equal "--sweep-gate") Sys.argv then begin
    (* CI mode: only the whole-store sweep feasibility gate. *)
    sweep_gate ();
    exit 0
  end;
  if Array.exists (String.equal "--rules-gate") Sys.argv then begin
    (* CI mode: only the combination-policy seam gate. *)
    rules_gate ();
    exit 0
  end;
  if Array.exists (String.equal "--obs-gate") Sys.argv then begin
    (* CI mode: only the observability overhead + worker-clamp gate. *)
    obs_gate ();
    exit 0
  end;
  if Array.exists (String.equal "--rules") Sys.argv then begin
    (* Just the rule quality sweep (regenerates BENCH_rules.json). *)
    rules_quality_sweep ();
    exit 0
  end;
  if Array.exists (String.equal "--join-scaling") Sys.argv then begin
    (* Just the join/kernel sweep (regenerates BENCH_join.json). *)
    join_scaling ();
    exit 0
  end;
  if Array.exists (String.equal "--incremental") Sys.argv then begin
    (* Just the delta-vs-full sweep (regenerates BENCH_incremental.json). *)
    incremental_sweep ();
    exit 0
  end;
  print_endline "verifying artifacts against the paper:";
  verify ();
  federation_fault_sweep ();
  join_scaling ();
  incremental_sweep ();
  provenance_gate ();
  store_gate ();
  rules_gate ();
  obs_gate ();
  rules_quality_sweep ();
  List.iter run_group
    [ ("paper-artifacts", artifact_tests);
      ("combination-scaling", combine_sweep);
      ("combination-rules", rules_sweep);
      ("selection-scaling", select_sweep);
      ("union-scaling", union_sweep);
      ("product-join", join_tests);
      ("baselines", baseline_tests);
      ("query-processing", query_tests);
      ("support-pairs", support_tests);
      ("federated-strategies", federated_tests);
      ("ablations", ablation_tests) ]
