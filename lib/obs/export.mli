(** Serialization of traces and metric snapshots.

    Two formats: Chrome's Trace Event JSON (load the file in
    [about:tracing] or [ui.perfetto.dev]) and a flat metrics dump
    (text for the REPL, JSON for files). Both are emitted one record
    per line, with keys and names sorted, so the output is diffable
    and golden-testable byte for byte. *)

val json_escape : string -> string
(** Quote and escape per RFC 8259 (handles quotes, backslashes and
    control characters; the result includes the surrounding quotes). *)

val chrome : ?from:int -> Trace.t -> string
(** The trace as a JSON array of Chrome complete events ([ph = "X"],
    timestamps and durations in microseconds), one event per line, in
    start order. With [from], only spans with [id >= from]. *)

val write_chrome : ?from:int -> Trace.t -> string -> unit
(** [write_chrome t path]: {!chrome} to a file. *)

val metrics_text : unit -> string
(** One metric per line, name-sorted:
    [counter dst.combine.calls 42]. Histograms show
    [count/sum/min/max/last] plus interpolated [p50/p95/p99]. Empty
    registries produce ["(no metrics recorded)\n"]. *)

val metrics_json : unit -> string
(** A JSON object keyed by metric name, one metric per line; counters
    are numbers, gauges [{"gauge": v}], histograms an object with
    [count/sum/min/max/last] and a [quantiles] object holding
    [p50/p95/p99]. *)

val help_for : string -> string
(** The [# HELP] text for a metric name: exact table entries first,
    then the longest matching family prefix (per-source and
    per-operator rollups), then a generic fallback. *)

val metrics_prom : unit -> string
(** Prometheus text exposition: [# HELP] then [# TYPE] headers per
    metric, names prefixed [eridb_] with non-alphanumerics mangled to
    [_]. Histograms emit cumulative [_bucket{le="…"}] series (only
    bounds where the count steps, plus [+Inf]), then [_sum] and
    [_count]. *)

val write_metrics : string -> unit
(** Dispatch on extension: [.prom] writes {!metrics_prom}, anything
    else {!metrics_json}. *)

val provenance_json : ?store:Provenance.t -> unit -> string
(** The whole arena as [{"nodes": […], "edges": […]}]; nodes carry
    id/kind/label, optional kappa/norm/alpha, args and input ids;
    edges are [[from, to]] pairs (one per node input), so the edge
    count equals the DOT export's. *)

val provenance_dot : ?store:Provenance.t -> unit -> string
(** Graphviz digraph, one [nN [...]] declaration per node (shape
    encodes the kind) and one [nA -> nB;] line per input edge,
    [rankdir=BT] so sources sit at the bottom. *)

val write_provenance : ?store:Provenance.t -> string -> unit
(** Dispatch on extension: [.dot] writes {!provenance_dot}, anything
    else {!provenance_json}. *)

val event_jsonl : Log.event -> string
(** One flight-recorder event as a single JSON object (no trailing
    newline): [seq], [ts_ms], [severity], [kind], [message], and
    [fields] when present — keys in that fixed order. *)

val events_jsonl : ?last:int -> unit -> string
(** The surviving journal, one {!event_jsonl} line per event, oldest
    first; with [last], only the final [n]. *)

val flight : ?last:int -> unit -> string
(** The crash-dump payload: {!events_jsonl} followed by one compact
    [{"metrics": …}] line holding the metrics snapshot. *)

val write_flight : ?last:int -> string -> unit
(** [write_flight path]: {!flight} to a file — the [--flight-out]
    payload. *)

(** {2 Protected output flushing}

    One registration path for every [--*-out] writer. A registered
    writer runs exactly once: at {!flush_now}, when a {!flush_protect}
    body raises, or at process exit (including [exit n] from a typed
    error path) via a single [at_exit] hook — so dumps survive the
    failures they are meant to explain. *)

val on_exit_flush : (unit -> unit) -> unit
(** Register a writer; also installs the [at_exit] hook on first use.
    Writers run in registration order; one failing writer does not
    stop the rest (a warning goes to stderr). *)

val flush_now : unit -> unit
(** Run and clear every registered writer now. Idempotent. *)

val flush_protect : (unit -> 'a) -> 'a
(** Run the body, flushing registered writers even when it raises. *)
