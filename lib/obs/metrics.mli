(** Named counters, gauges and histograms.

    One process-wide {!default} registry backs the instrumentation
    hooks compiled into the hot paths ([Dst.Mass] combination, the
    combine cache, the physical executor, the federation runtime,
    [Erm.Io] loading). It starts {e disabled}: every hook guards its
    work behind {!on}, so an uninstrumented run pays one boolean load
    per call site and nothing else. [eridb], [federate --metrics-out]
    and the test suites enable it explicitly.

    Metric names are static strings in the source (dot-separated,
    lower-case: [dst.combine.calls], [combine_cache.hit],
    [physical.index_probe.rows], [federation.retry.attempts],
    [io.parse.lines], [exec.index.build] / [exec.index.reuse] for the
    sharded partition and index cache, and the persistent store's
    [store.commit.*], [store.delta.*] and [store.recovery.*] families —
    opens, replayed records, truncated tails, manifest fallbacks, typed
    errors). A name is bound to one kind for the registry's
    lifetime; re-using it with another kind raises [Invalid_argument]
    — that is a bug in the instrumentation, not a runtime condition. *)

type registry

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

val create : unit -> registry
(** A fresh, enabled registry (explicit registries are always live). *)

val default : registry
(** The registry the compiled-in hooks write to. Starts disabled. *)

val on : unit -> bool
(** Is the default registry recording? The cheapest possible guard —
    instrumentation sites test this before computing metric values. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : ?registry:registry -> unit -> unit
(** Drop every metric (values and names). *)

val incr : ?registry:registry -> ?by:int -> string -> unit
(** Bump a counter (default 1). No-op while the registry is disabled. *)

val gauge : ?registry:registry -> string -> float -> unit
(** Set a gauge to its latest value. *)

val observe : ?registry:registry -> string -> float -> unit
(** Record one histogram sample. Besides count/sum/min/max/last, the
    sample lands in a fixed log-spaced bucket grid from which
    {!snapshot} estimates p50/p95/p99 by linear interpolation inside
    the crossing bucket (clamped to the observed min/max) — a
    deterministic, bounded-memory estimate. *)

val counter : ?registry:registry -> string -> int
(** Current value of a counter; 0 when the name is unbound. *)

val last : ?registry:registry -> string -> float option
(** Latest sample of a histogram or value of a gauge; [None] when the
    name is unbound. *)

val snapshot : ?registry:registry -> unit -> (string * stat) list
(** Every metric, sorted by name (so dumps are deterministic). *)

(** {2 Per-domain buffers}

    The sharded executor hands each pool task a forked buffer; while it
    is installed (via {!with_buffer}) every unqualified {!incr},
    {!gauge} and {!observe} on that domain appends to the buffer
    instead of touching the shared {!default} registry. The
    coordinating domain then {!merge}s the buffers at the pool barrier
    in task-index order. Merging {e replays} the recorded operation
    sequence rather than adding partial aggregates, so float
    accumulation order — and therefore the resulting dump — is
    byte-identical to a single-worker run. *)

type buffer

val fork : unit -> buffer option
(** A fresh buffer when the default registry is recording, [None]
    otherwise (so disabled runs allocate nothing). *)

val with_buffer : buffer option -> (unit -> 'a) -> 'a
(** Run [f] with the buffer installed as this domain's sink; restores
    the previous sink even on exceptions. [None] runs [f] bare. *)

val merge : buffer option -> unit
(** Replay a forked buffer's operations into {!default}, oldest first.
    Call from the coordinating domain, in task-index order. *)

(** {2 GC sampling}

    The [obs.gc.*] gauge family (minor/major words, compactions) is
    sampled from [Gc.quick_stat] each time a top-level span closes.
    Off by default — enable it for BENCH sweeps that need to correlate
    throughput cliffs with collector pressure. *)

val enable_gc_sampling : unit -> unit
val disable_gc_sampling : unit -> unit

val sample_gc : unit -> unit
(** Record [obs.gc.minor_words] / [obs.gc.major_words] /
    [obs.gc.compactions] gauges now. No-op unless both the registry
    and GC sampling are enabled. *)

val with_prefix : ?registry:registry -> string -> (string * stat) list
(** {!snapshot} restricted to names starting with the prefix, sorted —
    how batch consumers read back a rollup family such as
    [dst.combine.kappa_by_source.*] without scanning everything. *)
