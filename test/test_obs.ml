(* Unit tests for the observability layer (lib/obs): the metrics
   registry, the span tracer, both exporters, and the two acceptance
   properties of the instrumentation — the span tree of a physical
   execution matches the plan shape, and a high-conflict Dempster merge
   reports its κ through the metrics registry. *)

module M = Obs.Metrics
module T = Obs.Trace
module L = Obs.Log

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Every test that touches the process-wide defaults restores them. *)
let with_default_metrics f =
  M.reset ();
  M.enable ();
  Fun.protect
    ~finally:(fun () ->
      M.disable ();
      M.reset ())
    f

let with_default_tracing ?clock f =
  let saved = T.clock T.default in
  (match clock with Some c -> T.set_clock T.default c | None -> ());
  T.clear T.default;
  T.enable T.default;
  Fun.protect
    ~finally:(fun () ->
      T.disable T.default;
      T.clear T.default;
      T.set_clock T.default saved)
    f

(* --- metrics registry ------------------------------------------------ *)

let test_counters () =
  with_default_metrics @@ fun () ->
  M.incr "a";
  M.incr ~by:4 "a";
  M.incr "b";
  check_int "a accumulated" 5 (M.counter "a");
  check_int "b accumulated" 1 (M.counter "b");
  check_int "unbound counter reads 0" 0 (M.counter "zzz")

let test_gauges_histograms () =
  with_default_metrics @@ fun () ->
  M.gauge "g" 1.5;
  M.gauge "g" 2.5;
  M.observe "h" 3.0;
  M.observe "h" 1.0;
  M.observe "h" 2.0;
  (match M.last "g" with
  | Some v -> check "gauge keeps last" true (Float.equal v 2.5)
  | None -> Alcotest.fail "gauge missing");
  (match M.last "h" with
  | Some v -> check "histogram last" true (Float.equal v 2.0)
  | None -> Alcotest.fail "histogram missing");
  match M.snapshot () with
  | [ ("g", M.Gauge _); ("h", M.Histogram { count; sum; min; max; last; _ }) ]
    ->
      check_int "histogram count" 3 count;
      check "histogram sum" true (Float.equal sum 6.0);
      check "histogram min" true (Float.equal min 1.0);
      check "histogram max" true (Float.equal max 3.0);
      check "histogram last" true (Float.equal last 2.0)
  | _ -> Alcotest.fail "snapshot shape (should be name-sorted g, h)"

let test_kind_collision () =
  with_default_metrics @@ fun () ->
  M.incr "x";
  Alcotest.check_raises "observe on a counter name"
    (Invalid_argument "Obs.Metrics: x is already bound to another kind")
    (fun () -> M.observe "x" 1.0)

let test_disabled_default_noops () =
  M.reset ();
  check "default starts disabled" false (M.on ());
  M.incr "should.not.appear";
  M.observe "nor.this" 1.0;
  check_int "nothing recorded while disabled" 0
    (List.length (M.snapshot ()))

(* --- tracer ---------------------------------------------------------- *)

let test_span_nesting () =
  let t = T.create ~clock:(Obs.Clock.simulated ()) () in
  let v =
    T.with_span ~tracer:t "outer" (fun () ->
        T.with_span ~tracer:t "inner-1" (fun () -> ());
        T.with_span ~tracer:t "inner-2" (fun () -> ());
        42)
  in
  check_int "with_span returns the thunk's value" 42 v;
  (match T.events t with
  | [ outer; i1; i2 ] ->
      check_str "start order" "outer" outer.T.name;
      check "outer is a root" true (outer.T.parent = None);
      check "inner-1 parented" true (i1.T.parent = Some outer.T.id);
      check "inner-2 parented" true (i2.T.parent = Some outer.T.id);
      check_int "inner depth" 1 i1.T.depth
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs));
  match T.forest t with
  | [ { T.event; children = [ _; _ ] } ] ->
      check_str "forest root" "outer" event.T.name
  | _ -> Alcotest.fail "forest shape"

let test_span_on_raise () =
  let t = T.create ~clock:(Obs.Clock.simulated ()) () in
  (try T.with_span ~tracer:t "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  check_int "span recorded despite raise" 1 (List.length (T.events t))

let test_disabled_tracer_passthrough () =
  let t = T.create () in
  T.disable t;
  let before = T.count t in
  let v = T.with_span ~tracer:t "ghost" (fun () -> 7) in
  check_int "value passes through" 7 v;
  check_int "no span started" before (T.count t);
  check_int "no span recorded" 0 (List.length (T.events t))

let test_forest_from_slicing () =
  let t = T.create ~clock:(Obs.Clock.simulated ()) () in
  T.with_span ~tracer:t "first" (fun () -> ());
  let mark = T.count t in
  T.with_span ~tracer:t "second" (fun () ->
      T.with_span ~tracer:t "child" (fun () -> ()));
  match T.forest ~from:mark t with
  | [ { T.event; children = [ _ ] } ] ->
      check_str "only the second tree survives the cut" "second" event.T.name
  | f -> Alcotest.failf "expected 1 sliced tree, got %d" (List.length f)

let test_summary () =
  let t = T.create ~clock:(Obs.Clock.simulated ()) () in
  T.with_span ~tracer:t "a" (fun () -> ());
  T.with_span ~tracer:t "b" (fun () -> ());
  T.with_span ~tracer:t "a" (fun () -> ());
  match T.summary t with
  | [ ("a", 2, _); ("b", 1, _) ] -> ()
  | _ -> Alcotest.fail "summary aggregation (name-sorted, counted)"

(* --- flight recorder ------------------------------------------------- *)

let with_default_log f =
  L.set_clock (Obs.Clock.simulated ());
  L.clear ();
  L.enable ();
  Fun.protect
    ~finally:(fun () ->
      L.disable ();
      L.clear ())
    f

let test_log_disabled_noop () =
  L.clear ();
  check "default starts disabled" false (L.on ());
  L.record L.Retry "ghost";
  check_int "nothing recorded while disabled" 0 (List.length (L.events ()))

let test_log_ordering () =
  with_default_log (fun () ->
      L.record ~severity:L.Warn ~fields:[ ("source", "ra") ] L.Retry "r1";
      L.record L.Store_commit "c1";
      L.record ~severity:L.Error L.Quarantine "q1";
      match L.events () with
      | [ e0; e1; e2 ] ->
          check_int "dense seqs from 0" 0 e0.L.seq;
          check_int "seq 1" 1 e1.L.seq;
          check_int "seq 2" 2 e2.L.seq;
          check "oldest first" true
            (e0.L.message = "r1" && e2.L.message = "q1");
          check "default severity is Info" true (e1.L.severity = L.Info);
          check "fields preserved in order" true
            (e0.L.fields = [ ("source", "ra") ]);
          check "simulated clock stamps 0" true (Float.equal e0.L.ts_ms 0.0)
      | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

let test_log_wraparound () =
  with_default_log (fun () ->
      let cap = L.capacity () in
      check_int "the ring holds 256 events" 256 cap;
      for i = 0 to cap + 1 do
        L.record L.Shard_spawn (Printf.sprintf "e%d" i)
      done;
      let evs = L.events () in
      check_int "ring keeps capacity events" cap (List.length evs);
      check "most recent survive, in sequence order" true
        (List.map (fun e -> (e.L.seq, e.L.message)) evs
        = List.init cap (fun i -> (i + 2, Printf.sprintf "e%d" (i + 2))));
      check "last slices the tail" true
        (List.map (fun e -> e.L.seq) (L.events ~last:2 ()) = [ cap; cap + 1 ]))

let test_log_fork_merge () =
  with_default_log (fun () ->
      L.record L.Store_commit "before";
      let buf = Obs.Telemetry.fork () in
      check "fork yields a buffer while live" true (buf <> None);
      Obs.Telemetry.with_buffer buf (fun () ->
          L.record ~severity:L.Warn L.Retry "buffered-1";
          L.record L.Degrade "buffered-2");
      check_int "buffered events invisible before merge" 1
        (List.length (L.events ()));
      Obs.Telemetry.merge buf;
      check "merge replays in order with fresh seqs" true
        (List.map (fun e -> (e.L.seq, e.L.message)) (L.events ())
        = [ (0, "before"); (1, "buffered-1"); (2, "buffered-2") ]));
  check "fork while disabled is free" true (Obs.Telemetry.fork () = None)

let test_log_pp_and_jsonl () =
  with_default_log (fun () ->
      L.record ~severity:L.Warn
        ~fields:[ ("source", "ra"); ("attempt", "2") ]
        L.Retry "fetch failed";
      L.record L.Store_commit "committed";
      (match L.events () with
      | e :: _ ->
          check_str "pp_event line"
            "#0 warn  retry          fetch failed (source=ra, attempt=2)"
            (Format.asprintf "%a" L.pp_event e)
      | [] -> Alcotest.fail "no events");
      check_str "events_jsonl lines"
        ("{\"seq\":0,\"ts_ms\":0.000,\"severity\":\"warn\",\"kind\":\"retry\",\"message\":\"fetch \
          failed\",\"fields\":{\"source\":\"ra\",\"attempt\":\"2\"}}\n"
        ^ "{\"seq\":1,\"ts_ms\":0.000,\"severity\":\"info\",\"kind\":\"store_commit\",\"message\":\"committed\"}\n")
        (Obs.Export.events_jsonl ()))

(* --- exporters ------------------------------------------------------- *)

let test_json_escape () =
  check_str "plain" {|"abc"|} (Obs.Export.json_escape "abc");
  check_str "quote and backslash" {|"a\"b\\c"|}
    (Obs.Export.json_escape {|a"b\c|});
  check_str "newline" {|"a\nb"|} (Obs.Export.json_escape "a\nb");
  check_str "control char" {|"a\u0001b"|} (Obs.Export.json_escape "a\x01b")

let test_chrome_export () =
  let t = T.create ~clock:(Obs.Clock.simulated ()) () in
  T.with_span ~tracer:t ~cat:"test" ~args:[ ("detail", "d") ] "op" (fun () ->
      ());
  let json = Obs.Export.chrome t in
  check "array brackets" true
    (String.length json > 4
    && json.[0] = '['
    && String.sub json (String.length json - 2) 2 = "]\n");
  let has s sub =
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check "complete event" true (has json {|"ph":"X"|});
  check "name" true (has json {|"name":"op"|});
  check "category" true (has json {|"cat":"test"|});
  check "args" true (has json {|"args":{"detail":"d"}|})

let test_metrics_export () =
  with_default_metrics @@ fun () ->
  M.incr ~by:3 "c";
  M.observe "h" 1.5;
  let json = Obs.Export.metrics_json () in
  check_str "metrics json" "{\n  \"c\": 3,\n  \"h\": \
                            {\"count\":1,\"sum\":1.5,\"min\":1.5,\"max\":1.5,\"last\":1.5,\"quantiles\":{\"p50\":1.5,\"p95\":1.5,\"p99\":1.5}}\n}\n"
    json;
  let text = Obs.Export.metrics_text () in
  check "text mentions counter" true
    (String.length text > 0 && text.[0] = 'c');
  M.reset ();
  check_str "empty registry text" "(no metrics recorded)\n"
    (Obs.Export.metrics_text ());
  check_str "empty registry json" "{}\n" (Obs.Export.metrics_json ())

(* Pins the quantile estimator: samples 1..10 land in the {1,2,5}
   log-grid as 1→le1, 2→le2, {3,4,5}→le5, {6..10}→le10, and linear
   interpolation inside the crossing bucket gives exact rank
   estimates for this evenly-spread workload. *)
let test_quantile_interpolation () =
  with_default_metrics @@ fun () ->
  for i = 1 to 10 do
    M.observe "q" (float_of_int i)
  done;
  match M.snapshot () with
  | [ ("q", M.Histogram { p50; p95; p99; buckets; _ }) ] ->
      check "p50 interpolates to 5" true (Float.equal p50 5.0);
      check "p95 interpolates to 9.5" true (Float.equal p95 9.5);
      check "p99 interpolates to 9.9" true (Float.equal p99 9.9);
      (match List.rev buckets with
      | (inf, total) :: _ ->
          check "overflow bound is +Inf" true (inf = Float.infinity);
          check_int "cumulative reaches count" 10 total
      | [] -> Alcotest.fail "no buckets");
      check "cumulative counts are monotone" true
        (let rec mono prev = function
           | [] -> true
           | (_, c) :: rest -> c >= prev && mono c rest
         in
         mono 0 buckets)
  | _ -> Alcotest.fail "snapshot shape"

let test_prometheus_export () =
  with_default_metrics @@ fun () ->
  M.incr ~by:3 "dst.combine.calls";
  M.gauge "provenance.nodes" 7.0;
  M.observe "h" 1.5;
  let prom = Obs.Export.metrics_prom () in
  let has sub =
    let n = String.length sub and h = String.length prom in
    let rec go i = i + n <= h && (String.sub prom i n = sub || go (i + 1)) in
    go 0
  in
  check "help precedes type for known names" true
    (has
       "# HELP eridb_dst_combine_calls Evidence combinations performed.\n\
        # TYPE eridb_dst_combine_calls counter");
  check "unknown names get the fallback help, still before TYPE" true
    (has "# HELP eridb_h eridb metric.\n# TYPE eridb_h histogram");
  check "counter type line" true (has "# TYPE eridb_dst_combine_calls counter");
  check "counter sample" true (has "eridb_dst_combine_calls 3");
  check "gauge mangled name" true (has "eridb_provenance_nodes 7");
  check "histogram type" true (has "# TYPE eridb_h histogram");
  check "bucket line" true (has "eridb_h_bucket{le=\"2\"} 1");
  check "inf bucket" true (has "eridb_h_bucket{le=\"+Inf\"} 1");
  check "sum line" true (has "eridb_h_sum 1.5");
  check "count line" true (has "eridb_h_count 1")

(* --- acceptance: span tree = plan shape ------------------------------ *)

let make_env seed =
  Workload.Qgen.env (Workload.Rng.create seed) ()

let test_span_tree_matches_plan () =
  let env = make_env 11 in
  let q = Query.Parser.parse "ra JOIN (rb PREFIX r_) ON k = r_k" in
  with_default_tracing ~clock:(Obs.Clock.simulated ()) (fun () ->
      ignore (Query.Physical.eval_fast env q);
      match T.forest T.default with
      | [ { T.event = root;
            children =
              [ { T.event = l; children = [] };
                { T.event = r; children = right_children } ] } ] ->
          check_str "root is the join" "hash-join" root.T.name;
          check_str "left child scans" "seq-scan" l.T.name;
          check_str "right child prefixes" "prefix" r.T.name;
          check "prefix wraps one scan" true
            (match right_children with
            | [ { T.event = inner; _ } ] -> inner.T.name = "seq-scan"
            | _ -> false)
      | f ->
          Alcotest.failf "span forest does not match plan shape (%d roots)"
            (List.length f))

let test_span_tree_matches_union_plan () =
  let env = make_env 12 in
  let q = Query.Parser.parse "ra UNION rb" in
  with_default_tracing ~clock:(Obs.Clock.simulated ()) (fun () ->
      ignore (Query.Physical.eval_fast env q);
      match T.forest T.default with
      | [ { T.event = root;
            children = [ { T.event = l; _ }; { T.event = r; _ } ] } ] ->
          check_str "root is the union" "union" root.T.name;
          check_str "left scan" "seq-scan" l.T.name;
          check_str "right scan" "seq-scan" r.T.name
      | _ -> Alcotest.fail "union span forest shape")

(* --- acceptance: high-conflict merge reports kappa -------------------- *)

let test_high_conflict_kappa_reported () =
  let rng = Workload.Rng.create 99 in
  let dom = Workload.Gen.domain ~size:8 "kappa" in
  let a, b = Workload.Gen.conflicting_pair rng ~conflict:0.9 dom in
  let expected = Dst.Mass.F.conflict a b in
  with_default_metrics (fun () ->
      ignore (Dst.Mass.F.combine a b);
      check_int "one combination counted" 1 (M.counter "dst.combine.calls");
      match M.last "dst.combine.conflict_kappa" with
      | Some kappa ->
          check "metric kappa = recomputed kappa" true
            (Float.equal kappa expected);
          check "the merge really is high-conflict" true (kappa > 0.5)
      | None -> Alcotest.fail "conflict_kappa not recorded")

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [ ( "metrics",
        [ t "counters" test_counters;
          t "gauges and histograms" test_gauges_histograms;
          t "kind collision" test_kind_collision;
          t "disabled default no-ops" test_disabled_default_noops;
          t "quantile interpolation" test_quantile_interpolation ] );
      ( "trace",
        [ t "nesting" test_span_nesting;
          t "span recorded on raise" test_span_on_raise;
          t "disabled passthrough" test_disabled_tracer_passthrough;
          t "forest ~from slicing" test_forest_from_slicing;
          t "summary" test_summary ] );
      ( "log",
        [ t "disabled no-op" test_log_disabled_noop;
          t "ordering and defaults" test_log_ordering;
          t "ring wrap-around" test_log_wraparound;
          t "fork and merge" test_log_fork_merge;
          t "pp and jsonl export" test_log_pp_and_jsonl ] );
      ( "export",
        [ t "json escaping" test_json_escape;
          t "chrome trace" test_chrome_export;
          t "metrics dumps" test_metrics_export;
          t "prometheus exposition" test_prometheus_export ] );
      ( "acceptance",
        [ t "span tree matches join plan" test_span_tree_matches_plan;
          t "span tree matches union plan" test_span_tree_matches_union_plan;
          t "high-conflict kappa reported" test_high_conflict_kappa_reported
        ] ) ]
