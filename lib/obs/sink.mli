(** The one per-domain telemetry buffer under {!Trace}, {!Metrics} and
    {!Log}.

    A pool task runs with a buffer installed in this domain's one
    [Domain.DLS] slot (see {!Telemetry}). While it is installed, an
    unqualified span lands in the buffer's private tracer, and a
    metric or journal write is appended to the buffer as the write
    itself, to be replayed on the coordinating domain. Without a
    buffer, every recorder writes to its process-wide default. *)

type span = {
  id : int;  (** Start-order identity, unique per tracer. *)
  parent : int option;  (** Enclosing span, if any. *)
  depth : int;  (** 0 for roots. *)
  name : string;
  cat : string;
  args : (string * string) list;
  ts_ms : float;  (** Start, in the tracer clock's time base. *)
  dur_ms : float;
}
(** A completed span; {!Trace.event} is this record. *)

type tracer = {
  mutable clock : Clock.t;
  mutable live : bool;
  mutable next_id : int;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable spans : span list;  (** completed spans, most recent first *)
}
(** A tracer's state; {!Trace.t} is this record. *)

type t = {
  tracer : tracer;
      (** The task's spans, ids from 0, on the forking tracer's clock;
          live iff the default tracer was live at fork time. *)
  root : int option;  (** The default span open at fork time. *)
  depth : int;  (** The default tracer's open-span count at fork time. *)
  mutable replay : (unit -> unit) list;
      (** Metric and journal writes, most recent first. *)
}

val key : t option Domain.DLS.key
(** The one domain-local slot of [lib/obs]. *)

val installed : unit -> t option
(** This domain's buffer, if a task has one installed. *)

val push : t -> (unit -> unit) -> unit
(** Append a write, to be replayed at the merge. *)
