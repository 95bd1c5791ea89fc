(* The fanned-out executor's determinism contract, tested directly (the
   result-conformance legs live in test_conformance.ml):

   - Pool: results indexed by task, lowest-index exception wins, worker
     counts beyond the core count are fine (CI runs on 1 core — every
     count here must pass there);
   - Shard: partitions are deterministic disjoint covers; key
     partitions are balanced ascending key ranges, cut at pivots shared
     by every operand and merged in order, and skewed operands give the
     inline result;
   - Physical ~sharded: for a fixed query and seed, the rendered result
     is byte-identical for every worker count (and, over frames above
     62 values, bit-identical to Query.Eval); metrics rollups (under a
     virtual clock) and the lineage DOT export are byte-identical too;
     the measured report tree keeps its shape and row counts at every
     shard and worker count; and the dst.*/union_memo.* counter
     families are invariant across SHARD counts, not just worker
     counts;
   - the union memo: a result's bits do not depend on what the context
     memoized before, a bare scan is its bound relation at every shard
     count (so repeated unions of bound relations meet in the memo), and
     the memo keeps no dropped relation alive. *)

module R = Workload.Rng
module G = Workload.Gen
module Q = Workload.Qgen
module P = Query.Physical

let render r = Format.asprintf "%a" Erm.Relation.pp r

let sharded shards domains = { P.shards; domains }

(* A workload with guaranteed key overlap, so unions actually combine
   evidence. *)
let env_of seed =
  let rng = R.create seed in
  let ra, rb = G.source_pair rng ~size:40 ~overlap:0.5 Q.schema in
  [ ("ra", ra); ("rb", rb) ]

let union_q = Query.Ast.Union (Query.Ast.Rel "ra", Query.Ast.Rel "rb")

(* An Index_eq probe over ra's definite attribute: the planner picks the
   index access path, and the executor serves it from the scan cache. *)
let index_probe_on value =
  Query.Ast.Select
    { cols = None;
      from = Query.Ast.Rel "ra";
      where =
        Query.Ast.Cmp
          (Erm.Predicate.Eq, Query.Ast.Attr "a0", Query.Ast.Scalar value);
      threshold = Erm.Threshold.always }

let index_probe_q value = index_probe_on (Dst.Value.string value)

(* A probe for the a0 value of [r]'s first tuple, so it finds tuples. *)
let present_probe r =
  index_probe_on
    (Erm.Etuple.definite_value (Erm.Relation.schema r)
       (List.hd (Erm.Relation.tuples r))
       "a0")

let queries seed =
  let env = env_of seed in
  let qs =
    union_q
    :: List.init 4 (fun i -> Q.query (R.create (seed + (7919 * (i + 1)))) env)
  in
  (env, qs)

(* --- pool ------------------------------------------------------------ *)

let pool_indexes_results () =
  List.iter
    (fun domains ->
      let out = Query.Pool.run ~domains ~tasks:23 (fun i -> i * i) in
      Alcotest.(check (array int))
        (Printf.sprintf "task i slot holds f i (domains=%d)" domains)
        (Array.init 23 (fun i -> i * i))
        out)
    [ 1; 2; 4; 8 ]

let pool_lowest_exception_wins () =
  List.iter
    (fun domains ->
      Alcotest.check_raises
        (Printf.sprintf "lowest failing task wins (domains=%d)" domains)
        (Failure "task 3")
        (fun () ->
          ignore
            (Query.Pool.run ~domains ~tasks:16 (fun i ->
                 if i mod 3 = 0 && i > 0 then
                   failwith (Printf.sprintf "task %d" i)
                 else i))))
    [ 1; 2; 4; 8 ]

let pool_edges () =
  Alcotest.(check (array int)) "zero tasks" [||]
    (Query.Pool.run ~domains:4 ~tasks:0 (fun i -> i));
  Alcotest.(check (array int)) "one task" [| 7 |]
    (Query.Pool.run ~domains:4 ~tasks:1 (fun _ -> 7));
  Alcotest.(check (array int)) "more domains than tasks"
    (Array.init 3 (fun i -> i))
    (Query.Pool.run ~domains:16 ~tasks:3 (fun i -> i))

(* --- shard ----------------------------------------------------------- *)

let keys r = List.map Erm.Etuple.key (Erm.Relation.tuples r)
let key_lt a b = List.compare Dst.Value.compare a b < 0

(* The tuples of [r] below its [n]th key. *)
let first n r = fst (Erm.Relation.split r (List.nth (keys r) n))

(* The shard index holding [key], if any. *)
let home parts key =
  let rec go i =
    if i = Array.length parts then None
    else if Erm.Relation.mem parts.(i) key then Some i
    else go (i + 1)
  in
  go 0

let shard_disjoint_cover () =
  let rel = G.relation (R.create 11) ~size:100 Q.schema in
  List.iter
    (fun shards ->
      let pivots = Query.Shard.pivots ~shards [ rel ] in
      let parts = Query.Shard.by_key ~shards rel in
      Alcotest.(check int)
        (Printf.sprintf "%d shards" shards)
        shards (Array.length parts);
      let total =
        Array.fold_left (fun n p -> n + Erm.Relation.cardinal p) 0 parts
      in
      Alcotest.(check int) "tuples covered exactly once"
        (Erm.Relation.cardinal rel)
        total;
      Erm.Relation.iter
        (fun t ->
          let key = Erm.Etuple.key t in
          let holders =
            Array.to_list parts
            |> List.filter (fun p -> Erm.Relation.mem p key)
          in
          Alcotest.(check int) "exactly one shard holds each key" 1
            (List.length holders))
        rel;
      Alcotest.(check int) "shards - 1 pivots" (shards - 1)
        (Array.length pivots);
      (* Shard i holds exactly the keys in [pivot_{i-1}, pivot_i). *)
      Array.iteri
        (fun i part ->
          let in_range k =
            (i = 0 || not (key_lt k pivots.(i - 1)))
            && (i = shards - 1 || key_lt k pivots.(i))
          in
          Alcotest.(check (list (list string)))
            (Printf.sprintf "shard %d is its pivot range" i)
            (List.map (List.map Dst.Value.to_string)
               (List.filter in_range (keys rel)))
            (List.map (List.map Dst.Value.to_string) (keys part)))
        parts;
      Alcotest.(check bool) "shards ascend" true
        (List.concat_map keys (Array.to_list parts) = keys rel);
      Alcotest.(check bool) "merge restores the relation" true
        (Erm.Relation.equal rel (Query.Shard.merge parts)))
    [ 1; 3; 8 ]

(* A unary cut takes its own key quantiles: shard sizes differ by at
   most one, also with fewer tuples than shards. *)
let shard_balanced () =
  List.iter
    (fun size ->
      let rel = G.relation (R.create (17 + size)) ~size Q.schema in
      List.iter
        (fun shards ->
          let sizes =
            Array.map Erm.Relation.cardinal (Query.Shard.by_key ~shards rel)
          in
          let lo = Array.fold_left min max_int sizes
          and hi = Array.fold_left max 0 sizes in
          Alcotest.(check bool)
            (Printf.sprintf "%d tuples, %d shards: sizes within 1" size shards)
            true
            (hi - lo <= 1))
        [ 1; 2; 3; 5; 8 ])
    [ 0; 1; 2; 7; 8; 9; 100 ]

(* Every operand of one fan-out is cut at the largest one's pivots
   (the first on a tie), so a key bound in several operands lands at
   the same shard index in each. *)
let shard_shared_pivots () =
  let ra, rb =
    G.source_pair (R.create 21) ~size:60 ~overlap:0.5 Q.schema
  in
  let small = first 20 rb in
  let same_home name operands parts =
    List.iter
      (fun k ->
        let homes =
          List.filter_map
            (fun (r, p) -> if Erm.Relation.mem r k then home p k else None)
            (List.combine operands parts)
        in
        match homes with
        | [] -> ()
        | h :: rest ->
            Alcotest.(check (list int))
              (name ^ ": a shared key has one shard index")
              (List.map (fun _ -> h) rest)
              rest)
      (List.concat_map keys operands)
  in
  List.iter
    (fun shards ->
      let pa, pb = Query.Shard.by_keys ~shards small ra in
      Alcotest.(check bool) "the larger right operand sets the pivots" true
        (Query.Shard.pivots ~shards [ small; ra ]
         = Query.Shard.pivots ~shards [ ra ]);
      Alcotest.(check bool) "a tie takes the left operand's pivots" true
        (Query.Shard.pivots ~shards [ ra; rb ]
         = Query.Shard.pivots ~shards [ ra ]);
      same_home "binary" [ small; ra ] [ pa; pb ];
      let rc = G.reobserve (R.create 22) ra in
      let sources = [ small; rb; rc ] in
      let pivots = Query.Shard.pivots ~shards sources in
      same_home "sources" sources
        (List.map (Query.Shard.cut ~shards pivots) sources))
    [ 2; 3; 8 ]

let shard_merge_overlap () =
  let rel = G.relation (R.create 13) ~size:20 Q.schema in
  let parts = Query.Shard.by_key ~shards:2 rel in
  let raises name arr =
    Alcotest.(check bool) name true
      (match Query.Shard.merge arr with
      | _ -> false
      | exception Erm.Relation.Duplicate_key _ -> true)
  in
  raises "a key in two shards raises Duplicate_key"
    [| parts.(0); parts.(1); parts.(0) |];
  raises "shards out of order raise Duplicate_key" [| parts.(1); parts.(0) |];
  let drop parity =
    List.fold_left Erm.Relation.remove rel
      (List.filteri (fun i _ -> i mod 2 = parity) (keys rel))
  in
  let evens = drop 1 and odds = drop 0 in
  raises "interleaved key ranges raise Duplicate_key" [| evens; odds |];
  Alcotest.(check bool) "merge_values unions interleaved shards" true
    (Erm.Relation.equal rel (Query.Shard.merge_values [| evens; odds |]))

let shard_deterministic () =
  let rel = G.relation (R.create 12) ~size:60 Q.schema in
  let show parts =
    String.concat "\n---\n" (Array.to_list (Array.map render parts))
  in
  Alcotest.(check string) "same partition on re-run"
    (show (Query.Shard.by_key ~shards:5 rel))
    (show (Query.Shard.by_key ~shards:5 rel))

(* Skewed operands against inline execution: one operand's keys all
   sort below the other's, one operand is empty, or there are more
   shards than tuples. The larger operand sets the pivots, so the other
   one crowds into a few shards or none. *)
let below_and_above r =
  let ks = keys r in
  if ks = [] then (r, r)
  else Erm.Relation.split r (List.nth ks (List.length ks / 2))

let skewed_pairs () =
  let ra, rb = G.source_pair (R.create 31) ~size:40 ~overlap:0.6 Q.schema in
  let lo, _ = below_and_above ra and _, hi = below_and_above rb in
  let empty = Erm.Relation.empty (Erm.Relation.schema ra) in
  [ ("left below right", lo, hi);
    ("right below left", hi, lo);
    ("lower half against the whole", lo, rb);
    ("left empty", empty, rb);
    ("right empty", ra, empty);
    ("both empty", empty, empty);
    ("more shards than tuples", first 2 ra, first 3 rb) ]

let skewed_operators_match_inline () =
  let ops =
    [ ("union", fun a b -> Query.Ast.Union (a, b));
      ("intersect", fun a b -> Query.Ast.Intersect (a, b));
      ("except", fun a b -> Query.Ast.Except (a, b)) ]
  in
  List.iter
    (fun (case, left, right) ->
      let env = [ ("ra", left); ("rb", right) ] in
      List.iter
        (fun (op, make) ->
          let q = make (Query.Ast.Rel "ra") (Query.Ast.Rel "rb") in
          let inline = P.eval_fast ~ctx:(P.create_ctx ()) env q in
          List.iter
            (fun shards ->
              Alcotest.(check string)
                (Printf.sprintf "%s, %s, %d shards" case op shards)
                (render inline)
                (render
                   (P.eval_fast ~ctx:(P.create_ctx ())
                      ~sharded:(sharded shards 2) env q)))
            [ 2; 3; 8 ])
        ops)
    (skewed_pairs ())

(* Quarantined Zadeh and near-total-conflict rows make every absorbed
   source report conflicts; the sharded report must list them as the
   one-shard run does, by source and then by ascending key. *)
let skewed_integrate_matches_inline () =
  let dom = G.domain ~size:5 "skew_scenario" in
  let za, zb =
    Workload.Scenario.source_pair (R.create 41) ~rows:24
      Workload.Scenario.Zadeh dom
  in
  let nt, _ =
    Workload.Scenario.source_pair (R.create 42) ~rows:24
      Workload.Scenario.Near_total dom
  in
  let lo, _ = below_and_above za and _, hi = below_and_above nt in
  let empty = Erm.Relation.empty (Erm.Relation.schema za) in
  let cases =
    [ ("first source below the rest", [ lo; zb; hi ]);
      ("last source below the rest", [ zb; hi; lo ]);
      ("an empty source", [ za; empty; nt ]);
      ("more shards than tuples", [ first 2 za; first 3 zb; first 1 nt ]) ]
  in
  let quarantine =
    Dst.Rule.make
      ~escalation:(Dst.Rule.escalate ~kappa0:0.5 Dst.Rule.Quarantine)
      Dst.Rule.Dempster
  in
  let sources_of rels =
    List.mapi
      (fun i r ->
        { Integration.Multi.source_name = Printf.sprintf "s%d" i;
          source_relation = r })
      rels
  in
  Dst.Rule.with_policy quarantine (fun () ->
      Alcotest.(check bool) "the skewed sources report conflicts" true
        ((Integration.Multi.integrate (sources_of [ lo; zb; hi ]))
           .Integration.Multi.conflicts <> []);
      List.iter
        (fun (case, rels) ->
          let sources = sources_of rels in
          let inline = Integration.Multi.integrate sources in
          List.iter
            (fun shards ->
              let out =
                Integration.Multi.integrate ~sharded:(sharded shards 2) sources
              in
              let name = Printf.sprintf "%s, %d shards" case shards in
              Alcotest.(check bool) (name ^ ": relation") true
                (Exact.rel_equal inline.Integration.Multi.integrated
                   out.Integration.Multi.integrated);
              Alcotest.(check bool) (name ^ ": conflicts in order") true
                (inline.Integration.Multi.conflicts
                = out.Integration.Multi.conflicts))
            [ 2; 3; 8 ])
        cases)

(* --- engine: worker-count and shard-count independence --------------- *)

let worker_counts = [ 1; 2; 4; 8 ]

(* Evidential frames above 62 values, so shard-invariance is not only
   shown on the small frames Qgen draws. *)
let wide_env () =
  let schema = G.schema ~domain_size:70 "wide" in
  let ra, rb = G.source_pair (R.create 909) ~size:40 ~overlap:0.5 schema in
  [ ("ra", ra); ("rb", rb) ]

let results_byte_identical () =
  let env, qs = queries 101 in
  List.iteri
    (fun qi q ->
      let reference = P.eval_fast ~ctx:(P.create_ctx ()) env q in
      List.iter
        (fun domains ->
          let sharded =
            P.eval_fast ~ctx:(P.create_ctx ())
              ~sharded:(sharded 8 domains) env q
          in
          Alcotest.(check string)
            (Printf.sprintf "query %d, 8 shards, %d domains" qi domains)
            (render reference) (render sharded))
        worker_counts)
    qs;
  let env = wide_env () in
  let naive = Query.Eval.eval env union_q in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "70-value frames, 8 shards, %d domains: = Eval" domains)
        true
        (Exact.rel_equal naive
           (P.eval_fast ~ctx:(P.create_ctx ())
              ~sharded:(sharded 8 domains) env union_q)))
    worker_counts

let with_metrics f =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
    f

(* Swap in a virtual clock so exec.merge.ns & friends are deterministic
   across runs — the binaries do the same under ERIDB_CLOCK=virtual. *)
let with_virtual_clock f =
  let saved = Obs.Trace.clock Obs.Trace.default in
  Obs.Trace.set_clock Obs.Trace.default (Obs.Clock.simulated ());
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_clock Obs.Trace.default saved)
    f

(* The exec.workers gauge reports the worker count itself — the one
   value that must differ across worker counts (bench --obs-gate
   asserts it). Everything else in the dump has to match byte for
   byte, so strip exactly that line before comparing. *)
let strip_worker_gauge text =
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         not
           (String.length line >= 5
           && String.sub line 0 5 = "gauge"
           && String.length line >= 22
           && String.sub line 10 12 = "exec.workers"))
  |> String.concat "\n"

let metrics_rollup_for ~shards ~domains env qs =
  (* Cold scan cache per rollup, so exec.index.build/reuse counts are a
     function of the batch alone, not of which rollup ran first. *)
  P.reset_scan_cache ();
  with_virtual_clock (fun () ->
      with_metrics (fun () ->
          let ctx = P.create_ctx () in
          List.iter
            (fun q ->
              ignore (P.eval_fast ~ctx ~sharded:(sharded shards domains) env q))
            qs;
          strip_worker_gauge (Obs.Export.metrics_text ())))

(* Spans under a fork merge back renumbered but content- and
   order-identical, so every id-free rendering (forest, Chrome export,
   summary) must be byte-equal to the inline run's. *)
let trace_rollup_for ~shards ~domains env qs =
  P.reset_scan_cache ();
  with_virtual_clock (fun () ->
      let t = Obs.Trace.default in
      Obs.Trace.enable t;
      Fun.protect
        ~finally:(fun () ->
          Obs.Trace.disable t;
          Obs.Trace.clear t)
        (fun () ->
          let from = Obs.Trace.count t in
          let ctx = P.create_ctx () in
          List.iter
            (fun q ->
              ignore (P.eval_fast ~ctx ~sharded:(sharded shards domains) env q))
            qs;
          Format.asprintf "%a@.%s%s" Obs.Trace.pp_forest
            (Obs.Trace.forest ~from t)
            (Obs.Export.chrome ~from t)
            (String.concat ""
               (List.map
                  (fun (n, c, d) -> Printf.sprintf "%s %d %g\n" n c d)
                  (Obs.Trace.summary t)))))

let metrics_byte_identical_across_workers () =
  let env, qs = queries 202 in
  let reference = metrics_rollup_for ~shards:8 ~domains:1 env qs in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "metrics rollup, 8 shards, %d domains" domains)
        reference
        (metrics_rollup_for ~shards:8 ~domains env qs))
    worker_counts

let traces_byte_identical_across_workers () =
  let env, qs = queries 505 in
  let reference = trace_rollup_for ~shards:8 ~domains:1 env qs in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "trace rollup, 8 shards, %d domains" domains)
        reference
        (trace_rollup_for ~shards:8 ~domains env qs))
    worker_counts

(* The qcheck form of the tentpole guarantee: for random workloads the
   merged per-worker metric and trace rollups at workers ∈ {2,4,8} are
   byte-identical to workers=1. *)
let qcheck_merged_telemetry =
  QCheck.Test.make ~count:10
    ~name:"merged per-worker telemetry = inline run (metrics + traces)"
    QCheck.(int_range 0 1000)
    (fun n ->
      let seed = 606 + n in
      let env, qs = queries seed in
      let m_ref = metrics_rollup_for ~shards:8 ~domains:1 env qs in
      let t_ref = trace_rollup_for ~shards:8 ~domains:1 env qs in
      List.for_all
        (fun domains ->
          String.equal m_ref (metrics_rollup_for ~shards:8 ~domains env qs)
          && String.equal t_ref (trace_rollup_for ~shards:8 ~domains env qs))
        [ 2; 4; 8 ])

(* Every recorder at once: metrics, spans and the journal, under an
   escalation policy low enough that shard workers record Escalation
   events of their own. The rendering is the metrics text, the span
   forest with its Chrome export, and the journal's JSONL. Like the
   exec.workers gauge, the [workers] field of a Shard_spawn event
   reports the worker count itself, so it is stripped too. *)
let escalating =
  Dst.Rule.make
    ~escalation:
      (Dst.Rule.escalate ~kappa0:0.2 (Dst.Rule.Fallback Dst.Rule.Averaging))
    Dst.Rule.Dempster

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

let strip_worker_field jsonl =
  let field = {|,"workers":"|} in
  String.split_on_char '\n' jsonl
  |> List.map (fun line ->
         match find_sub line field with
         | None -> line
         | Some i ->
             let j = String.index_from line (i + String.length field) '"' in
             String.sub line 0 i
             ^ String.sub line (j + 1) (String.length line - j - 1))
  |> String.concat "\n"

(* Run [work] under the escalation policy with every recorder live and
   render what they recorded, worker-count fields stripped. *)
let recorders_of work =
  P.reset_scan_cache ();
  let t = Obs.Trace.default in
  with_virtual_clock (fun () ->
      with_metrics (fun () ->
          Obs.Log.set_clock (Obs.Clock.simulated ());
          Obs.Log.clear ();
          Obs.Log.enable ();
          Obs.Trace.enable t;
          Fun.protect
            ~finally:(fun () ->
              Obs.Trace.disable t;
              Obs.Trace.clear t;
              Obs.Log.disable ();
              Obs.Log.clear ();
              Obs.Log.set_clock (Obs.Clock.wall ()))
            (fun () ->
              let from = Obs.Trace.count t in
              Dst.Rule.with_policy escalating work;
              String.concat ""
                [ strip_worker_gauge (Obs.Export.metrics_text ());
                  Format.asprintf "%a@." Obs.Trace.pp_forest
                    (Obs.Trace.forest ~from t);
                  Obs.Export.chrome ~from t;
                  strip_worker_field (Obs.Export.events_jsonl ()) ])))

let all_recorders_for ~shards ~domains env qs =
  recorders_of (fun () ->
      let ctx = P.create_ctx () in
      List.iter
        (fun q ->
          ignore (P.eval_fast ~ctx ~sharded:(sharded shards domains) env q))
        qs)

let qcheck_all_recorders_merged =
  QCheck.Test.make ~count:10
    ~name:"all three recorders merged at once = inline run"
    QCheck.(int_range 0 1000)
    (fun n ->
      let env, qs = queries (808 + n) in
      let reference = all_recorders_for ~shards:8 ~domains:1 env qs in
      if find_sub reference {|"kind":"escalation"|} = None then
        QCheck.Test.fail_report "no Escalation event recorded";
      List.for_all
        (fun domains ->
          String.equal reference
            (all_recorders_for ~shards:8 ~domains env qs))
        [ 2; 4; 8 ])

(* The same guarantee for the sharded integrate: three discounted
   sources (ra, rb and a re-observation of ra) absorbed in 8 shards. *)
let integrate_recorders_for ~domains seed =
  let env = env_of seed in
  let ra = List.assoc "ra" env in
  let sources =
    List.map
      (fun (n, r) ->
        { Integration.Multi.source_name = n; source_relation = r })
      (env @ [ ("rc", G.reobserve (R.create (seed + 1)) ra) ])
  in
  recorders_of (fun () ->
      ignore
        (Integration.Multi.integrate ~discount:true
           ~sharded:(sharded 8 domains) sources))

let qcheck_integrate_recorders_merged =
  QCheck.Test.make ~count:10
    ~name:"sharded integrate: all three recorders = inline run"
    QCheck.(int_range 0 1000)
    (fun n ->
      let seed = 909 + n in
      let reference = integrate_recorders_for ~domains:1 seed in
      if find_sub reference {|"kind":"escalation"|} = None then
        QCheck.Test.fail_report "no Escalation event recorded";
      if find_sub reference "fan out exec.integrate" = None then
        QCheck.Test.fail_report "no Shard_spawn event recorded";
      List.for_all
        (fun domains ->
          String.equal reference (integrate_recorders_for ~domains seed))
        [ 2; 4; 8 ])

(* The measured tree, one line per node in preorder: operator, detail,
   row counts and index probes — everything in a report that must not
   depend on the fan-out (cache counters and times may). *)
let rec report_shape (r : P.report) =
  let s = r.P.r_stats in
  Printf.sprintf "%s [%s] rows=%d/%d pruned=%d idx=%d/%d" r.P.r_op
    r.P.r_detail s.Query.Stats.rows_in s.Query.Stats.rows_out
    s.Query.Stats.pruned s.Query.Stats.index_hits s.Query.Stats.index_misses
  :: List.concat_map report_shape r.P.r_children

let report_tree_invariant () =
  let env, qs = queries 707 in
  let probe = present_probe (List.assoc "ra" env) in
  let equi_join =
    Query.Ast.Join
      { left = Query.Ast.Rel "ra";
        right =
          Query.Ast.Prefixed { from = Query.Ast.Rel "rb"; prefix = "r_" };
        on =
          Query.Ast.Cmp
            (Erm.Predicate.Eq, Query.Ast.Attr "a0", Query.Ast.Attr "r_a0");
        threshold = Erm.Threshold.always }
  in
  List.iteri
    (fun qi q ->
      let plan = P.plan_optimized env q in
      let measure shards domains =
        with_virtual_clock (fun () ->
            snd
              (P.execute_measured ~ctx:(P.create_ctx ())
                 ~sharded:(sharded shards domains) env plan))
      in
      let reference = report_shape (measure 1 1) in
      List.iter
        (fun shards ->
          let one = measure shards 1 in
          Alcotest.(check (list string))
            (Printf.sprintf "query %d, %d shards: same tree and rows" qi shards)
            reference (report_shape one);
          Alcotest.(check string)
            (Printf.sprintf "query %d, %d shards: domains 1 and 4 render alike"
               qi shards)
            (Query.Explain.report_to_string one)
            (Query.Explain.report_to_string (measure shards 4)))
        [ 1; 3; 8 ])
    (probe :: equi_join :: qs)

(* Counter families owned by the evidential arithmetic must not depend
   on how many shards the engine used. (exec.* diagnostics and
   histogram float sums are configuration-dependent by design —
   DESIGN.md §7 scopes the invariance claim.) *)
let counters_invariant_across_shard_counts () =
  let env, qs = queries 303 in
  let counters_for shards =
    with_virtual_clock (fun () ->
        with_metrics (fun () ->
            let ctx = P.create_ctx () in
            (* An EXCEPT that removes nothing is its left operand at
               every shard count, so this union meets union_q in the
               memo; then every query twice over. *)
            let except_nothing =
              let ra = Query.Ast.Rel "ra" in
              Query.Ast.Union
                ( Query.Ast.Except (ra, Query.Ast.Except (ra, ra)),
                  Query.Ast.Rel "rb" )
            in
            List.iter
              (fun q ->
                ignore (P.eval_fast ~ctx ~sharded:(sharded shards 1) env q))
              ((except_nothing :: qs) @ qs);
            List.map
              (fun name -> (name, Obs.Metrics.counter name))
              [ "dst.combine.calls";
                "dst.combine.total_conflict";
                "union_memo.hit";
                "union_memo.miss" ]))
  in
  let reference = counters_for 1 in
  Alcotest.(check bool) "the memo hits" true
    (List.assoc "union_memo.hit" reference > 0);
  List.iter
    (fun shards ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%d shards" shards)
        reference (counters_for shards))
    [ 3; 8 ]

let lineage_dot_byte_identical () =
  let env, qs = queries 404 in
  let dot_for domains =
    Obs.Provenance.reset ();
    Obs.Provenance.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.Provenance.disable ();
        Obs.Provenance.reset ())
      (fun () ->
        let ctx = P.create_ctx () in
        List.iter
          (fun q ->
            ignore (P.eval_fast ~ctx ~sharded:(sharded 8 domains) env q))
          qs;
        Obs.Export.provenance_dot ())
  in
  let reference = dot_for 1 in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "lineage DOT, %d domains" domains)
        reference (dot_for domains))
    worker_counts

(* --- union memo -------------------------------------------------------- *)

(* Every cell bit for bit: definite values, evidence under Mass.compare
   (not the tolerance of Relation.equal), and both support floats. *)
let same_bits r1 r2 =
  let cell c1 c2 =
    match (c1, c2) with
    | Erm.Etuple.Definite v, Erm.Etuple.Definite w -> Dst.Value.equal v w
    | Erm.Etuple.Evidence m, Erm.Etuple.Evidence n ->
        Dst.Mass.F.compare m n = 0
    | _ -> false
  in
  let tm t = Erm.Etuple.tm t in
  List.equal
    (fun t u ->
      Erm.Etuple.key t = Erm.Etuple.key u
      && List.equal cell (Erm.Etuple.cells t) (Erm.Etuple.cells u)
      && Float.equal (Dst.Support.sn (tm t)) (Dst.Support.sn (tm u))
      && Float.equal (Dst.Support.sp (tm t)) (Dst.Support.sp (tm u)))
    (Erm.Relation.tuples r1) (Erm.Relation.tuples r2)

(* Union is commutative only up to float rounding, so a memo that served
   [rb UNION ra] from [ra UNION rb] would make a result's bits depend on
   the session's history. *)
let union_bits_independent_of_history () =
  let ra, rb =
    G.source_pair (R.create 505) ~focals:4 ~size:60 ~overlap:1.0 Q.schema
  in
  let env = [ ("ra", ra); ("rb", rb) ] in
  let swapped = Query.Ast.Union (Query.Ast.Rel "rb", Query.Ast.Rel "ra") in
  List.iter
    (fun shards ->
      let run ctx q = P.eval_fast ~ctx ~sharded:(sharded shards 1) env q in
      let ctx = P.create_ctx () in
      ignore (run ctx union_q);
      Alcotest.(check bool)
        (Printf.sprintf "%d shard(s): rb UNION ra = a fresh context's" shards)
        true
        (same_bits (run ctx swapped) (run (P.create_ctx ()) swapped)))
    [ 1; 2 ]

let bare_scan_is_bound_relation () =
  let env = env_of 606 in
  let ra = List.assoc "ra" env in
  let scan env = P.plan env (Query.Ast.Rel "ra") in
  List.iter
    (fun shards ->
      Alcotest.(check bool)
        (Printf.sprintf "%d shard(s): the bound relation itself" shards)
        true
        (P.execute ~sharded:(sharded shards 1) env (scan env) == ra))
    [ 1; 2; 8 ];
  (* sn = 0 tuples of an unchecked relation still go *)
  let zero, rest =
    match Erm.Relation.tuples ra with
    | t :: rest ->
        (Erm.Etuple.with_tm (Dst.Support.make ~sn:0.0 ~sp:0.5) t, rest)
    | [] -> Alcotest.fail "empty fixture"
  in
  let unchecked =
    Erm.Relation.of_tuples_unchecked (Erm.Relation.schema ra) (zero :: rest)
  in
  let env' = [ ("ra", unchecked) ] in
  List.iter
    (fun shards ->
      let out = P.execute ~sharded:(sharded shards 1) env' (scan env') in
      Alcotest.(check int)
        (Printf.sprintf "%d shard(s): sn = 0 dropped" shards)
        (Erm.Relation.cardinal ra - 1) (Erm.Relation.cardinal out);
      Alcotest.(check bool)
        (Printf.sprintf "%d shard(s): CWA holds" shards)
        true (Erm.Relation.satisfies_cwa out))
    [ 1; 2; 8 ]

let memo_does_not_pin_relations () =
  let ctx = P.create_ctx () in
  let union_and_forget shards =
    let env = env_of (90 + shards) in
    let weak = Weak.create 3 in
    Weak.set weak 0 (Some (List.assoc "ra" env));
    Weak.set weak 1 (Some (List.assoc "rb" env));
    Weak.set weak 2
      (Some (P.eval_fast ~ctx ~sharded:(sharded shards 1) env union_q));
    weak
  in
  List.iter
    (fun shards ->
      let weak = (union_and_forget [@inlined never]) shards in
      Gc.full_major ();
      List.iteri
        (fun i what ->
          Alcotest.(check bool)
            (Printf.sprintf "%d shard(s): %s collected" shards what)
            false (Weak.check weak i))
        [ "left operand"; "right operand"; "result" ])
    [ 1; 4 ];
  ignore (Sys.opaque_identity ctx)

(* --- scan cache: per-shard partitions and indexes -------------------- *)


let index_reuse_across_queries () =
  let env = env_of 77 in
  P.reset_scan_cache ();
  with_metrics (fun () ->
      let ctx = P.create_ctx () in
      let run v =
        ignore (P.eval_fast ~ctx ~sharded:(sharded 4 1) env (index_probe_q v))
      in
      run "a0-1";
      Alcotest.(check int) "first probe builds" 1
        (Obs.Metrics.counter "exec.index.build");
      Alcotest.(check int) "no reuse yet" 0
        (Obs.Metrics.counter "exec.index.reuse");
      run "a0-2";
      Alcotest.(check int) "second probe reuses" 1
        (Obs.Metrics.counter "exec.index.reuse");
      Alcotest.(check int) "no rebuild" 1
        (Obs.Metrics.counter "exec.index.build"))

(* The cache is weakly keyed: once nothing else binds a relation, its
   partitions and indexes go with it. At one shard the entry's partition
   is the relation itself, so a strong entry would pin it. *)
let cache_does_not_pin_relations () =
  P.reset_scan_cache ();
  let probe_and_forget shards =
    let ra = G.relation (R.create (80 + shards)) ~size:40 Q.schema in
    let weak = Weak.create 1 in
    Weak.set weak 0 (Some ra);
    ignore
      (P.eval_fast ~sharded:(sharded shards 1) [ ("ra", ra) ]
         (index_probe_q "a0-1"));
    weak
  in
  List.iter
    (fun shards ->
      let weak = (probe_and_forget [@inlined never]) shards in
      Gc.full_major ();
      Alcotest.(check bool)
        (Printf.sprintf "%d shard(s): collected" shards)
        false (Weak.check weak 0))
    [ 1; 4 ]

(* Relations are immutable, so the cache needs no store hook: a commit
   yields a new relation value, and rebinding the name to it must miss
   the cache, rebuild the per-shard partitions and indexes, and answer
   from the committed data. *)
let index_cache_invalidated_by_store_commit () =
  let env = env_of 78 in
  let ra = List.assoc "ra" env in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eridb_exec_%d" (Unix.getpid ()))
  in
  let q = present_probe ra in
  P.reset_scan_cache ();
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      with_metrics (fun () ->
          let ctx = P.create_ctx () in
          let run env = P.eval_fast ~ctx ~sharded:(sharded 4 1) env q in
          let before = run env in
          ignore (run env);
          Alcotest.(check int) "warm before commit" 1
            (Obs.Metrics.counter "exec.index.reuse");
          let store = Store.Estore.create ~dir ~name:"ra" ra in
          ignore
            (Store.Delta.apply store ~name:"d"
               (G.reobserve (R.create 79) ra));
          let env' =
            ("ra", Store.Estore.relation store) :: List.remove_assoc "ra" env
          in
          let after = run env' in
          Alcotest.(check int) "rebuilt after rebinding" 2
            (Obs.Metrics.counter "exec.index.build");
          Alcotest.(check int) "no reuse across the rebinding" 1
            (Obs.Metrics.counter "exec.index.reuse");
          Alcotest.(check bool) "the probe finds tuples" true
            (Erm.Relation.cardinal after > 0);
          Alcotest.(check bool) "the commit changed the answer" false
            (String.equal (render before) (render after));
          Alcotest.(check string) "= naive evaluation of the committed data"
            (render (Query.Eval.eval env' q))
            (render after);
          ignore (run env');
          Alcotest.(check int) "warm again" 2
            (Obs.Metrics.counter "exec.index.reuse")))

let () =
  Alcotest.run "exec"
    [ ( "pool",
        [ Alcotest.test_case "results are task-indexed" `Quick
            pool_indexes_results;
          Alcotest.test_case "lowest-index exception wins" `Quick
            pool_lowest_exception_wins;
          Alcotest.test_case "edge sizes" `Quick pool_edges ] );
      ( "shard",
        [ Alcotest.test_case "disjoint cover" `Quick shard_disjoint_cover;
          Alcotest.test_case "deterministic" `Quick shard_deterministic;
          Alcotest.test_case "merge overlap raises" `Quick shard_merge_overlap;
          Alcotest.test_case "unary cuts are balanced" `Quick shard_balanced;
          Alcotest.test_case "operands share pivots" `Quick shard_shared_pivots;
          Alcotest.test_case "skewed set operations = inline" `Quick
            skewed_operators_match_inline;
          Alcotest.test_case "skewed integrate = inline" `Quick
            skewed_integrate_matches_inline ] );
      ( "determinism",
        [ Alcotest.test_case "results byte-identical across worker counts"
            `Quick results_byte_identical;
          Alcotest.test_case "metrics byte-identical across worker counts"
            `Quick metrics_byte_identical_across_workers;
          Alcotest.test_case "traces byte-identical across worker counts"
            `Quick traces_byte_identical_across_workers;
          QCheck_alcotest.to_alcotest qcheck_merged_telemetry;
          QCheck_alcotest.to_alcotest qcheck_all_recorders_merged;
          QCheck_alcotest.to_alcotest qcheck_integrate_recorders_merged;
          Alcotest.test_case "report tree shard- and worker-invariant" `Quick
            report_tree_invariant;
          Alcotest.test_case "dst/cache counters shard-count-invariant"
            `Quick counters_invariant_across_shard_counts;
          Alcotest.test_case "lineage DOT byte-identical across worker counts"
            `Quick lineage_dot_byte_identical;
          Alcotest.test_case "union bits independent of session history"
            `Quick union_bits_independent_of_history ] );
      ( "union-memo",
        [ Alcotest.test_case "bare scan is its bound relation" `Quick
            bare_scan_is_bound_relation;
          Alcotest.test_case "memo does not pin dropped relations" `Quick
            memo_does_not_pin_relations ] );
      ( "scan-cache",
        [ Alcotest.test_case "per-shard indexes reused across queries" `Quick
            index_reuse_across_queries;
          Alcotest.test_case "store commit invalidates the cache" `Quick
            index_cache_invalidated_by_store_commit;
          Alcotest.test_case "cache does not pin dropped relations" `Quick
            cache_does_not_pin_relations ] ) ]
