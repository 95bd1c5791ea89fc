(** The store's I/O seam.

    Every byte the persistent store reads or writes goes through a
    record of closures, so tests and the [federate --store-fault-plan]
    chaos flag can interpose a {e deterministic} disk-fault injector —
    the I/O counterpart of [Federation.Fault]'s seeded source chaos.
    The real implementation carries the store's durability discipline:
    data writes are [fsync]ed before close, and renames/creates are
    followed by a directory fsync so the entry itself survives a
    crash. *)

type fault_code = Eio | Enospc

exception Fault of { op : string; path : string; code : fault_code }
(** The typed error an injected (or, for the real backend, translated)
    I/O failure raises. [op] is ["write"], ["append"], ["rename"] or an
    ["…fsync"] suffix thereof. *)

val code_to_string : fault_code -> string

type t = {
  read_file : string -> string;
  write_file : string -> string -> unit;
      (** Create/truncate, write all, fsync file and directory. *)
  append_file : string -> string -> unit;  (** Append all, fsync. *)
  rename : string -> string -> unit;  (** Atomic; fsyncs the directory. *)
  remove : string -> unit;
  mkdir_p : string -> unit;
  exists : string -> bool;
  file_size : string -> int;
  truncate_file : string -> int -> unit;
  list_dir : string -> string list;
}

val real : t

(** {2 Deterministic fault injection} *)

type spec = {
  eio_rate : float;  (** fail before a single byte is written *)
  enospc_rate : float;  (** write a random prefix, then fail *)
  short_rate : float;  (** silently write a random prefix *)
  torn_at : int option;  (** deterministically cut every write at byte k *)
  flip_rate : float;  (** flip one random bit of the written content *)
  fsync_eio_rate : float;  (** data written, the flush fails *)
  rename_fail_rate : float;  (** rename fails, target untouched *)
}

val spec_default : spec
(** All rates zero, no torn point — a transparent wrapper. *)

type plan = (string option * spec) list
(** Per-file-class specs; [None] is the [*] default entry. *)

val classify : string -> string
(** File class of a path: ["manifest"] ([MANIFEST*]), ["segment"]
    ([*.seg]) or ["other"]. *)

val plan_of_string : string -> (plan, string) result
(** Same surface syntax as [Federation.Fault.plan_of_string]:
    [class:key=value,…;class:…] with [*] as the default class. Keys:
    [eio], [enospc], [short], [flip], [fsync_eio], [rename] (rates in
    [0,1]) and [torn_at] (byte offset). Example:
    [segment:torn_at=64;manifest:rename=1]. *)

val spec_for : plan -> string -> spec
(** Spec for a file class: exact entry, else the [*] entry, else
    {!spec_default}. *)

val faulty : seed:int -> plan:plan -> t -> t
(** Wrap a backend with seeded fault injection. One splitmix64 stream
    per file class (seeded [seed lxor hash class]), so the decision
    sequence for segment writes is independent of manifest traffic —
    the same per-name stream discipline as [Federation.Fault.wrap].
    Short and torn writes return {e silently} (a crashed process never
    observes its own torn write); EIO/ENOSPC/fsync/rename failures
    raise {!Fault}. *)
