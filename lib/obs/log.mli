(** The flight recorder: a bounded ring of typed, severity-leveled
    events.

    Counters say {e how often}; the journal says {e what happened, in
    order}. Hook sites in the federation runtime (retries, degraded
    merges), the combination kernel (κ-escalations, quarantines), the
    evidence store (commits, recovery anomalies), the sharded executor
    and the combine cache record one event per noteworthy transition.
    The ring keeps the most recent 256 events and overwrites older ones
    in place — recording is O(1), and a crash dump ([--flight-out]) is
    just the surviving suffix.

    Like {!Metrics} and {!Trace}, the process-wide recorder starts
    disabled; every site guards on {!on}, so an unobserved run pays one
    boolean load per site. *)

type severity = Debug | Info | Warn | Error

val severity_to_string : severity -> string

(** The closed event vocabulary. Adding a constructor is an API change
    on purpose: consumers (the JSONL export, the REPL, dashboards) get
    to enumerate every kind. *)
type kind =
  | Retry  (** a source fetch failed and will be retried *)
  | Degrade  (** a source delivered late, stale, or not at all *)
  | Escalation  (** combination κ crossed the policy threshold *)
  | Quarantine  (** an escalated combination was quarantined *)
  | Store_commit  (** the evidence store committed a segment/delta *)
  | Recovery_error  (** store recovery hit a typed anomaly *)
  | Shard_spawn  (** the executor fanned a stage out over shards *)
  | Shard_merge  (** the executor merged shard outputs *)

val kind_to_string : kind -> string

type event = {
  seq : int;  (** Global sequence number; dense, never reused. *)
  ts_ms : float;  (** Recorder clock's time base. *)
  severity : severity;
  kind : kind;
  message : string;
  fields : (string * string) list;  (** Structured detail, in order. *)
}

val on : unit -> bool
(** Is the recorder live? The hot-path guard. *)

val enable : unit -> unit

val disable : unit -> unit

val set_clock : Clock.t -> unit
(** Timestamps come from this clock (default: wall). A simulated clock
    makes journals deterministic. *)

val capacity : unit -> int
(** The ring's size: 256. *)

val record :
  ?severity:severity -> ?fields:(string * string) list -> kind -> string -> unit
(** Append one event (default severity [Info]). No-op when disabled.
    Inside a pool task the event lands in the task's buffer (see the
    last section). *)

val events : ?last:int -> unit -> event list
(** Surviving events in sequence order (oldest first); with [last],
    only the final [n]. *)

val clear : unit -> unit

val pp_event : Format.formatter -> event -> unit
(** [#seq severity kind message (k=v, …)] — the REPL [.events] line. *)

val pp_events : Format.formatter -> event list -> unit

(** {2 Inside a pool task}

    [Query.Pool] runs each task with one {!Sink} buffer installed (see
    {!Telemetry}). {!record} then stamps the event on the task's
    domain and appends it to the buffer without a sequence number. The
    merge inserts the buffered events on the coordinating domain, in
    task order, so sequence numbers, and any ring wrap-around, are
    those of an inline run. *)
