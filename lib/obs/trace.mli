(** Hierarchical span tracing.

    A tracer records one span per [with_span] call: name, category,
    free-form string arguments, start time and duration (read through
    its {!Clock.t}, so a simulated clock makes traces deterministic),
    and the identity of the enclosing span. The span tree therefore
    mirrors the dynamic call tree — for a physical plan execution it is
    exactly the plan shape.

    Like {!Metrics}, the process-wide {!default} tracer starts
    disabled and every compiled-in site guards on {!on}; a disabled
    [with_span] is a single boolean load and a direct call. *)

type event = Sink.span = {
  id : int;  (** Start-order identity, unique per tracer. *)
  parent : int option;  (** Enclosing span, if any. *)
  depth : int;  (** 0 for roots. *)
  name : string;
  cat : string;
  args : (string * string) list;
  ts_ms : float;  (** Start, in the tracer clock's time base. *)
  dur_ms : float;
}

type t = Sink.tracer
(** A tracer's state. Write to it only through this module. *)

val create : ?clock:Clock.t -> unit -> t
(** A fresh, enabled tracer (default clock: {!Clock.wall}). *)

val default : t
(** The tracer the compiled-in sites write to. Starts disabled, wall
    clock. *)

val set_clock : t -> Clock.t -> unit
val clock : t -> Clock.t
val enable : t -> unit
val disable : t -> unit
val live : t -> bool

val on : unit -> bool
(** [live default] — the hot-path guard. *)

val with_span :
  ?tracer:t ->
  ?cat:string ->
  ?args:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a
(** Run the thunk inside a span (default tracer, default category
    ["app"]). The span is recorded even when the thunk raises. When the
    tracer is disabled this is just the call. Without an explicit
    [tracer], the span lands in this domain's installed buffer when a
    pool task has one (see {!Telemetry}). *)

val count : t -> int
(** Spans recorded so far. Remember it before a unit of work to slice
    that unit's spans out afterwards (see [forest]'s [from]). *)

val events : t -> event list
(** Completed spans in start order. *)

val clear : t -> unit
(** Drop recorded spans (open spans, if any, keep their identities). *)

type tree = { event : event; children : tree list }

val forest : ?from:int -> t -> tree list
(** The span trees, in start order. With [from], only spans with
    [id >= from] are kept; spans whose parent falls before the cut
    become roots — this is how per-query trees are carved out of a
    session-long trace. *)

val pp_forest : Format.formatter -> tree list -> unit
(** One line per span: [name [detail] 1.2ms], children indented. Uses
    the ["detail"] argument when present. *)

val summary : t -> (string * int * float) list
(** Per-name aggregation over all recorded spans: (name, count, total
    duration in ms), sorted by name. *)

(** {2 Inside a pool task}

    [Query.Pool] runs each task with one {!Sink} buffer installed (see
    {!Telemetry}). Unqualified spans then go to the buffer's private
    tracer, with local ids from 0. The merge renumbers them to
    [base + id], where [base] is {!default}'s span count at the merge,
    hangs local roots under the span that was open at fork time and
    offsets depths, so the merged forest is the one an inline run
    records. Spans on an explicit [~tracer] bypass the buffer. *)
