(** Named counters, gauges and histograms.

    One process-wide registry backs the instrumentation hooks compiled
    into the hot paths ([Dst.Mass] combination, the combine cache, the
    physical executor, the federation runtime, [Erm.Io] loading). It
    starts {e disabled}: every write tests {!on} first, so an
    uninstrumented run pays one boolean load per call site and nothing
    else. [eridb], [federate --metrics-out]
    and the test suites enable it explicitly.

    Metric names are static strings in the source (dot-separated,
    lower-case: [dst.combine.calls], [union_memo.hit],
    [physical.index_probe.rows], [federation.retry.attempts],
    [io.parse.lines], [exec.index.build] / [exec.index.reuse] for the
    sharded partition and index cache, and the persistent store's
    [store.commit.*], [store.delta.*] and [store.recovery.*] families —
    opens, replayed records, truncated tails, manifest fallbacks, typed
    errors). A name is bound to one kind for the registry's
    lifetime; re-using it with another kind raises [Invalid_argument]
    — that is a bug in the instrumentation, not a runtime condition. *)

type stat =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : float;
      min : float;
      max : float;
      last : float;
      p50 : float;
      p95 : float;
      p99 : float;
      buckets : (float * int) list;
          (** cumulative [(upper_bound, count <= bound)] over a fixed
              log-spaced grid ({1,2,5} per decade), ending with the
              [+infinity] overflow bucket — the shape a Prometheus
              exposition needs. *)
    }

val on : unit -> bool
(** Is the registry recording? The cheapest possible guard —
    instrumentation sites test this before computing metric values. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop every metric (values and names). *)

val incr : ?by:int -> string -> unit
(** Bump a counter (default 1). While the registry is disabled this is
    one load of its live flag and nothing else, so a call site needs no
    guard of its own unless computing the arguments costs. *)

val gauge : string -> float -> unit
(** Set a gauge to its latest value. *)

val observe : string -> float -> unit
(** Record one histogram sample. Besides count/sum/min/max/last, the
    sample lands in a fixed log-spaced bucket grid from which
    {!snapshot} estimates p50/p95/p99 by linear interpolation inside
    the crossing bucket (clamped to the observed min/max) — a
    deterministic, bounded-memory estimate. *)

val counter : string -> int
(** Current value of a counter; 0 when the name is unbound. *)

val last : string -> float option
(** Latest sample of a histogram or value of a gauge; [None] when the
    name is unbound. *)

val snapshot : unit -> (string * stat) list
(** Every metric, sorted by name (so dumps are deterministic). *)

val with_prefix : string -> (string * stat) list
(** {!snapshot} restricted to names starting with the prefix, sorted —
    how batch consumers read back a rollup family such as
    [dst.combine.kappa_by_source.*] without scanning everything. *)

(** {2 Inside a pool task}

    [Query.Pool] runs each task with one {!Sink} buffer installed (see
    {!Telemetry}). {!incr}, {!gauge} and {!observe} then append the
    write to the buffer instead of touching the registry. The merge
    replays the writes on the coordinating domain, in task order, and
    does not add up partial aggregates: float sums accumulate in the
    inline run's order, so a dump is byte-identical at every worker
    count. *)
