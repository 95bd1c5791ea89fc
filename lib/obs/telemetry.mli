(** Fork and merge of the one telemetry buffer ({!Sink}) that
    {!Trace}, {!Metrics} and {!Log} share — the per-task protocol of
    [Query.Pool].

    The pool forks one buffer per task on the coordinating domain,
    before any worker starts; each task runs under {!with_buffer}; after
    every worker is joined the pool merges the buffers in task-index
    order. The result is byte-identical to an inline single-worker run,
    whatever the worker count: metric writes are replayed in order (not
    summed), spans are renumbered and reparented, and journal events get
    their sequence numbers at the merge. *)

val fork : unit -> Sink.t option
(** A fresh buffer rooted at the default tracer's open span, or [None]
    when no recorder is live (an unobserved run allocates nothing). *)

val with_buffer : Sink.t option -> (unit -> 'a) -> 'a
(** Run [f] with the buffer installed as this domain's sink; restores
    the previous sink even on exceptions. [None] runs [f] bare. *)

val merge : Sink.t option -> unit
(** Replay a buffer's metric and journal writes, oldest first, and
    splice its spans into {!Trace.default}. Call from the coordinating
    domain, in task-index order. *)
