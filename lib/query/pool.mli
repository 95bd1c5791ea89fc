(** A deterministic fixed-size task pool over OCaml 5 domains.

    [run ~domains ~tasks f] evaluates [f 0 … f (tasks - 1)] and returns
    the results indexed by task. With [domains ≤ 1] (or a single task)
    everything runs inline, in ascending task order, on the calling
    domain. Otherwise up to [domains - 1] helper domains are spawned and
    tasks are claimed from a shared atomic counter; the caller works
    too, so [~domains:n] never uses more than [n] domains in total.

    Determinism contract: the {e result} is the indexed array, so it
    cannot depend on which worker ran which task or in what order they
    finished — provided [f] itself touches no shared mutable state.
    The executor honours that proviso by giving each task its own
    interner, scratch and cache; the process-global telemetry stores
    are handled by the pool itself. Before spawning, the parallel path
    forks one [Obs.Telemetry] buffer per task (on the calling domain,
    so it hangs off the enclosing span); each task records metrics,
    spans and journal events into its own buffer, and after every
    worker is joined the buffers are merged back in task-index order.
    Merging replays the recorded operations, so counters, histogram
    state, span forests and the event journal are byte-identical to an
    inline single-worker run — whatever the worker count. Provenance
    recording has no buffered mode; the executor runs one shard while
    it is on.

    Worker counts larger than the machine's core count are valid (the
    extra domains just time-share); CI runs this on one core.

    If any task raises, the exception of the {e lowest-numbered} failing
    task is re-raised after all workers have been joined — again
    independent of scheduling. Telemetry buffers for tasks up to and
    including the failing one are merged first (the failing task's
    partial records included), and later tasks' buffers are dropped —
    exactly what an inline run would have recorded when the exception
    escaped. *)

val run : domains:int -> tasks:int -> (int -> 'a) -> 'a array
