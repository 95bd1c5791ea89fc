(** The binaries' one failure boundary.

    Each binary catches once, around a command or a run, and asks
    {!classify} what the exception means. A library failure becomes a
    positioned message, printed with {!to_string} and mapped to the
    binary's own exit code. Anything else is a bug and is re-raised, so
    it still crashes loudly. *)

type t = {
  file : string option;
  line : int;  (** 1-based; [0] = unknown. *)
  col : int;  (** 1-based; [0] = unknown. *)
  message : string;
}

val classify : exn -> t option
(** [Some] for every library failure a binary can reach: OS errors
    ([Sys_error], [Unix.Unix_error]), the loader's [Erm.Io.Io_error],
    query parse and evaluation errors, schema,
    tuple and relation errors, the float mass kernel's errors (total
    conflict, invalid mass, quarantine, frame mismatch), and the
    store's [Store_error] and I/O [Fault]. [None] for anything else. *)

val to_string : t -> string
(** [FILE:LINE:COL: message], omitting the parts that are unknown
    ({!Diagnostic.pp_position}). *)

val handle : (t -> 'a) -> (unit -> 'a) -> 'a
(** [handle on_failure f] runs [f]. When [f] raises a library failure,
    [on_failure] gets its classification; any other exception
    propagates with its backtrace. *)
