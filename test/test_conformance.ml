(* Differential conformance harness: the execution surfaces must
   agree EXACTLY — same tuples, same evidence, bit-identical (sn, sp)
   supports — on randomly generated workloads:

   - the naive evaluator (Query.Eval), the reference semantics;
   - the physical planner (Query.Physical), with tracing off and on and
     with provenance recording on — observability must have no observer
     effect;
   - the same executor fanned out (Query.Physical ~sharded), for
     every tested shard count × worker (domain) count, including
     with tracing or provenance recording live — partitioning and
     parallelism must have no representational effect either (each
     shard combines through its own fresh Dst.Combine_cache);
   - the single-source integration surface (Integration.Multi), which
     must be the identity on any query result;
   - the sharded integrate (Integration.Multi.integrate ~sharded), whose
     whole report must equal the one-shard run's at every shard count
     x worker count, under every rule;
   - the persistent store's delta path (Store.Estore + Store.Delta):
     creating a store from the integration of a source prefix, folding
     the remaining source in as an on-disk delta, and reopening the
     store through recovery must reproduce Integration.Multi.integrate
     over all sources — persistence, incremental absorption and crash
     recovery together must have no representational effect.

   Equality ({!Exact.rel_equal}) is stricter than Erm.Relation.equal:
   supports and masses are compared with Float.equal. A double IS a
   dyadic rational, so bit-exact float comparison is exact-rational
   comparison of the values both pipelines actually computed — any
   reordering of Dempster combinations that changes even the last ulp
   is a divergence, and tolerance would mask it.

   Seeds: qcheck honours QCHECK_SEED, which CI pins, so a divergence
   found there reproduces locally with the same seed. *)

module R = Workload.Rng
module Q = Workload.Qgen
module G = Workload.Gen

let count = 250

let prop name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let seed_arb = QCheck.int_range 0 1_000_000

(* --- shared fixtures ------------------------------------------------- *)

(* One execution context across all cases, and the executor's
   process-wide index cache sees a stream of distinct relations under the
   same names, so staleness bugs break conformance immediately (same
   construction as test_plan_equiv). *)
let ctx = Query.Physical.create_ctx ()

(* CI's obs job sets ERIDB_OBS=1: the whole grid then runs with the
   default metrics registry, tracer and flight recorder live, proving
   recording has no representational effect at any shard × worker
   point. Virtual clocks keep the ambient recording deterministic. *)
let () =
  match Sys.getenv_opt "ERIDB_OBS" with
  | Some ("1" | "true" | "on") ->
      Obs.Metrics.enable ();
      Obs.Trace.set_clock Obs.Trace.default (Obs.Clock.simulated ());
      Obs.Trace.enable Obs.Trace.default;
      Obs.Log.set_clock (Obs.Clock.simulated ());
      Obs.Log.enable ()
  | Some _ | None -> ()

(* The sharded grid: every shard count × worker count combination the
   issue pins, plus whatever ERIDB_DOMAINS the environment supplies
   (CI's sharded job sets it), so the same binary sweeps a larger grid
   there without a rebuild. *)
let shard_counts = [ 1; 3; 8 ]

let domain_counts =
  let pinned = [ 1; 2; 4 ] in
  match Sys.getenv_opt "ERIDB_DOMAINS" with
  | None -> pinned
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 && not (List.mem n pinned) -> pinned @ [ n ]
      | _ -> pinned)

let sharded_grid ~ctx env q check =
  List.for_all
    (fun shards ->
      List.for_all
        (fun domains ->
          check
            (Query.Physical.eval_fast ~ctx ~sharded:{ shards; domains } env q))
        domain_counts)
    shard_counts

(* The sharded integrate over the same grid. Its report must equal the
   one-shard run's: the relation bit-exactly, conflicts (in order),
   conflict matrix and reliabilities structurally. *)
let integrate_grid sources check =
  List.for_all
    (fun shards ->
      List.for_all
        (fun domains ->
          check
            (Integration.Multi.integrate
               ~sharded:{ Query.Physical.shards; domains }
               sources))
        domain_counts)
    shard_counts

let same_report (a : Integration.Multi.report) (b : Integration.Multi.report)
    =
  Exact.rel_equal a.integrated b.integrated
  && a.conflicts = b.conflicts
  && a.conflict_matrix = b.conflict_matrix
  && a.reliabilities = b.reliabilities

let make_case seed =
  let env = Q.env (R.create seed) () in
  let q = Q.query (R.create (seed + 7919)) env in
  (env, q)

(* A fresh private tracer would not exercise the compiled-in guards —
   the observer-effect test must flip the DEFAULT tracer the hot paths
   consult, and restore it whatever happens. *)
let with_default_tracing f =
  (* Restore, don't force off: under ERIDB_OBS the ambient tracer must
     stay live for the legs that run after this one. *)
  let was_live = Obs.Trace.on () in
  Obs.Trace.clear Obs.Trace.default;
  Obs.Trace.enable Obs.Trace.default;
  Fun.protect
    ~finally:(fun () ->
      if not was_live then Obs.Trace.disable Obs.Trace.default;
      Obs.Trace.clear Obs.Trace.default)
    f

(* Same discipline for the lineage arena: the provenance legs must flip
   the default store the recording hooks consult. *)
let with_default_provenance f =
  Obs.Provenance.reset ();
  Obs.Provenance.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Provenance.disable ();
      Obs.Provenance.reset ())
    f

(* The store leg needs real files: each case builds, deltas and reopens
   a store in a throwaway directory. *)
let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eridb_conf_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun file -> Sys.remove (Filename.concat dir file))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let store_schema = G.schema "conf_store"

(* Persist a two-source integration incrementally — create from the
   first source, fold the second in as an on-disk delta, reopen through
   recovery — and return what the store then holds. *)
let via_store dir r1 d =
  let t = Store.Estore.create ~dir ~name:"m" r1 in
  ignore (Store.Delta.apply t ~name:"d" d);
  let t2, _ = Store.Estore.open_store dir in
  Store.Estore.relation t2

let store_case s =
  let r1 = G.relation (R.create s) ~size:8 store_schema in
  let d = G.reobserve (R.create (s + 104729)) r1 in
  let sources =
    [ { Integration.Multi.source_name = "m"; source_relation = r1 };
      { Integration.Multi.source_name = "d"; source_relation = d } ]
  in
  (r1, d, sources)

(* --- properties ------------------------------------------------------ *)

let conformance_props =
  [ prop "physical = naive (exact tuples, exact supports)" seed_arb (fun s ->
        let env, q = make_case s in
        Exact.rel_equal
          (Query.Eval.eval env q)
          (Query.Physical.eval_fast ~ctx env q));
    prop "tracing never changes a physical result" seed_arb (fun s ->
        let env, q = make_case s in
        let plain = Query.Physical.eval_fast ~ctx env q in
        let traced =
          with_default_tracing (fun () -> Query.Physical.eval_fast ~ctx env q)
        in
        Exact.rel_equal plain traced);
    prop "traced physical = naive (no observer effect vs reference)"
      seed_arb
      (fun s ->
        let env, q = make_case s in
        let naive = Query.Eval.eval env q in
        let traced =
          with_default_tracing (fun () -> Query.Physical.eval_fast ~ctx env q)
        in
        Exact.rel_equal naive traced);
    prop "provenance never changes a physical result" seed_arb (fun s ->
        let env, q = make_case s in
        let plain = Query.Physical.eval_fast ~ctx env q in
        let recorded =
          with_default_provenance (fun () ->
            Query.Physical.eval_fast ~ctx env q)
        in
        Exact.rel_equal plain recorded);
    prop "provenance-on physical = naive (no observer effect vs reference)"
      seed_arb
      (fun s ->
        let env, q = make_case s in
        let naive = Query.Eval.eval env q in
        let recorded =
          with_default_provenance (fun () ->
            Query.Physical.eval_fast ~ctx env q)
        in
        Exact.rel_equal naive recorded);
    prop "sharded = naive for every shard count x domain count" seed_arb
      (fun s ->
        let env, q = make_case s in
        let naive = Query.Eval.eval env q in
        sharded_grid ~ctx env q (Exact.rel_equal naive));
    prop "sharded under tracing = naive (no observer effect)" seed_arb
      (fun s ->
        let env, q = make_case s in
        let naive = Query.Eval.eval env q in
        with_default_tracing (fun () ->
            sharded_grid ~ctx env q (Exact.rel_equal naive)));
    prop "sharded under provenance = naive (no observer effect)" seed_arb
      (fun s ->
        let env, q = make_case s in
        let naive = Query.Eval.eval env q in
        with_default_provenance (fun () ->
            sharded_grid ~ctx env q (Exact.rel_equal naive)));
    prop "single-source integration is the identity on query results"
      seed_arb
      (fun s ->
        let env, q = make_case s in
        let r = Query.Eval.eval env q in
        let report =
          Integration.Multi.integrate
            [ { Integration.Multi.source_name = "only"; source_relation = r } ]
        in
        Exact.rel_equal r report.Integration.Multi.integrated);
    prop "store delta + recovery = integrate (sharded grid)" seed_arb
      (fun s ->
        let r1, d, sources = store_case s in
        let stored = with_temp_dir (fun dir -> via_store dir r1 d) in
        let one_shard = Integration.Multi.integrate sources in
        Exact.rel_equal stored one_shard.Integration.Multi.integrated
        && integrate_grid sources (fun r ->
               same_report one_shard r
               && Exact.rel_equal stored r.Integration.Multi.integrated));
    prop "store delta under provenance = integrate (no observer effect)"
      seed_arb
      (fun s ->
        let r1, d, sources = store_case s in
        let plain =
          (Integration.Multi.integrate sources).Integration.Multi.integrated
        in
        let stored =
          with_default_provenance (fun () ->
              with_temp_dir (fun dir -> via_store dir r1 d))
        in
        Exact.rel_equal plain stored) ]

(* --- leg 7: rule-parameterized conformance --------------------------- *)

(* The combination rule is a session-global strategy: under EVERY rule
   (and under an escalation policy) naive, physical and sharded
   execution must still agree bit-exactly, shard count x domain count
   across the same grid. *)

let rule_policies =
  List.map Dst.Rule.make
    (Dst.Rule.all @ [ Dst.Rule.discount_then_combine 0.9 ])
  @ [ Dst.Rule.make
        ~escalation:
          (Dst.Rule.escalate ~kappa0:0.6
             (Dst.Rule.Fallback Dst.Rule.Averaging))
        Dst.Rule.Dempster ]

(* The policy sweep multiplies the grid, so these run at a lower count;
   QCHECK_SEED still pins the cases. *)
let rule_prop name law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:40 seed_arb law)

let rule_props =
  [ rule_prop "every rule: physical = naive and sharded = naive (grid)"
      (fun s ->
        let env, q = make_case s in
        List.for_all
          (fun policy ->
            Dst.Rule.with_policy policy (fun () ->
                let naive = Query.Eval.eval env q in
                Exact.rel_equal naive (Query.Physical.eval_fast ~ctx env q)
                && sharded_grid ~ctx env q (Exact.rel_equal naive)))
          rule_policies);
    rule_prop "every rule: sharded integrate = naive integrate (grid)"
      (fun s ->
        let _, _, sources = store_case s in
        List.for_all
          (fun policy ->
            Dst.Rule.with_policy policy (fun () ->
                let naive = Integration.Multi.integrate sources in
                integrate_grid sources (same_report naive)))
          rule_policies);
    rule_prop "quarantine: sharded integrate reports conflicts in order"
      (fun s ->
        (* Three sources over Zadeh- and near-total-conflict rows: most
           pairs quarantine, so each source contributes many conflicts,
           and the sharded report must list them as the one-shard run
           does — by source, then by ascending key. *)
        let dom = G.domain ~size:5 "conf_scenario" in
        let za, zb =
          Workload.Scenario.source_pair (R.create s) ~rows:24
            Workload.Scenario.Zadeh dom
        in
        let nt, _ =
          Workload.Scenario.source_pair (R.create (s + 1)) ~rows:24
            Workload.Scenario.Near_total dom
        in
        let sources =
          List.map
            (fun (n, r) ->
              { Integration.Multi.source_name = n; source_relation = r })
            [ ("za", za); ("zb", zb); ("nt", nt) ]
        in
        let quarantine =
          Dst.Rule.make
            ~escalation:(Dst.Rule.escalate ~kappa0:0.5 Dst.Rule.Quarantine)
            Dst.Rule.Dempster
        in
        Dst.Rule.with_policy quarantine (fun () ->
            let one_shard = Integration.Multi.integrate sources in
            if one_shard.Integration.Multi.conflicts = [] then
              QCheck.Test.fail_report "no conflict reported";
            integrate_grid sources (same_report one_shard))) ]

let () =
  Alcotest.run "conformance"
    [ ("surfaces", conformance_props); ("rules", rule_props) ]
