(* What the ledger measures, by name. BENCHMARK.json at the repository
   root declares the same workloads and metrics (plus the bounds); the
   unit tests fail when the two drift apart. *)

type metric = { name : string; unit_ : string; better : Summary.better }

let m name unit_ better = { name; unit_; better }

let workloads = [ "query-mix"; "merge-fresh"; "ingest"; "store-churn" ]

(* Every workload reports every one of these, from an untraced run. *)
let end_to_end =
  Summary.
    [ m "setup_s" "s" Lower;
      m "ops_per_s" "ops/s" Higher;
      m "op_p50_ms" "ms" Lower;
      m "op_tail_ms" "ms" Lower;
      m "heap_peak_mb" "MB" Lower ]

(* Physical operators the workloads' plans contain, as Physical.pp
   names them. *)
let operators =
  [ "seq-scan"; "index-scan"; "filter"; "hash-join"; "union"; "rank"; "prefix" ]

(* Layers with a span of their own around the calls the ledger makes. *)
let span_layers = [ "io"; "query"; "exec"; "integration"; "federation"; "store" ]

(* From a separate traced run. A workload that never enters a layer
   reports that layer's numbers as 0. *)
let per_layer =
  Summary.(
    List.concat_map
      (fun l -> [ m (l ^ ".self_ms") "ms" Lower; m (l ^ ".setup_ms") "ms" Lower ])
      span_layers
    @ [ m "io.mb_per_s" "MB/s" Higher;
        m "io.alloc_words_per_byte" "words/B" Lower;
        m "query.parse_us" "us" Lower;
        m "query.plan_us" "us" Lower;
        m "query.exec_ms" "ms" Lower ]
    @ List.map (fun op -> m ("query.op." ^ op ^ ".self_ms") "ms" Lower) operators
    @ [ m "query.rows_examined_per_row" "ratio" Lower;
        m "query.index_hit_ratio" "ratio" Higher;
        m "dst.combine_calls" "count" Lower;
        m "dst.cache_hit_ratio" "ratio" Higher;
        m "dst.ns_per_combine" "ns" Lower;
        m "dst.kappa_mean" "ratio" Lower;
        m "exec.busy_ms" "ms" Lower;
        m "exec.speedup_vs_inline" "ratio" Higher;
        m "exec.merge_ms" "ms" Lower;
        m "exec.shard_skew" "ratio" Lower;
        m "exec.integrate_ms" "ms" Lower;
        m "exec.workers" "count" Higher;
        m "integration.conflicts" "count" Lower;
        m "integration.mean_kappa" "ratio" Lower;
        m "federation.retry_attempts" "count" Lower;
        m "federation.fetch_lost" "count" Lower;
        m "federation.sim_elapsed_ms" "ms-virtual" Lower;
        m "store.create_ms" "ms" Lower;
        m "store.commit_p50_ms" "ms" Lower;
        m "store.commit_tail_ms" "ms" Lower;
        m "store.write_amp" "ratio" Lower;
        m "store.open_ms" "ms" Lower;
        m "store.records_replayed" "count" Lower;
        m "store.segments" "count" Lower;
        m "store.space_amp" "ratio" Lower;
        m "store.durable_absorbs" "count" Higher;
        m "gc.minor_mwords_per_op" "Mwords" Lower;
        m "gc.major_collections_per_op" "count" Lower;
        m "obs.traced_over_untraced" "ratio" Lower;
        m "obs.layer_coverage" "ratio" Higher ])

let find metrics name = List.find_opt (fun x -> x.name = name) metrics
