(** Append-only segment files of extended tuples.

    A segment is a 7-byte file header followed by length-prefixed,
    CRC-32-checksummed records:

    {v
    "ERSEG1\n"
    ┌──────┬──────┬─────────────┬────────────┬─────────┐
    │ 0xE5 │ kind │ length (LE) │ crc32 (LE) │ payload │
    │ 1 B  │ 1 B  │ 4 B         │ 4 B        │ … bytes │
    └──────┴──────┴─────────────┴────────────┴─────────┘
    v}

    Kinds: ['S'] schema header text, ['T'] upsert
    ([digest '\n' tuple-row]), ['D'] delete ([digest]). The digest keys
    a record by the tuple's provenance key string
    ([Erm.Lineage.key_string]) — the identity [.why] resolves. The crc
    covers the kind byte and the payload, so a record cannot be
    reinterpreted under another kind. *)

val header : string
val overhead : int
(** Framing bytes per record (magic + kind + length + crc). *)

type record =
  | Schema_rec of string
  | Upsert of { digest : string; row : string }
  | Delete of { digest : string }

type tail =
  | Clean  (** every byte consumed *)
  | Torn of int  (** incomplete record starting at this offset *)
  | Bad_magic_at of int  (** framing violated at this offset *)
  | Bad_crc_at of int  (** record checksum mismatch at this offset *)

val digest_of_tuple : Erm.Etuple.t -> string

val encode_file : record list -> string
(** A whole segment: {!header}, then each record framed in order. *)

val scan : ?verify:bool -> string -> record list * int * tail
(** Parse segment bytes: the records of the longest clean prefix, its
    byte length, and how (or whether) parsing stopped. [~verify:false]
    skips the per-record CRC check — the recovery benchmark's baseline,
    never the durability path. Never raises. *)
