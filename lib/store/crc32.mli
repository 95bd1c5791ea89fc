(** CRC-32 (IEEE, reflected) — the per-record checksum of segment
    framing and the manifest trailer. Self-contained slicing-by-8
    implementation (eight 256-entry tables of native ints, 8 bytes per
    step); matches the polynomial used by zlib/gzip, so externally
    generated fixtures can be checked with standard tools. *)

val digest : string -> int32

val update : int32 -> string -> pos:int -> len:int -> int32
(** [update crc s ~pos ~len] continues the checksum [crc] over the byte
    range [\[pos, pos+len)], as zlib's [crc32] does:
    [update (digest a) b ~pos:0 ~len:(String.length b) = digest (a ^ b)]
    and [digest s = update 0l s ~pos:0 ~len:(String.length s)].
    @raise Invalid_argument if the range is not within [s]. *)

val to_hex : int32 -> string
(** Fixed-width 8-digit lower-case hex. *)

val of_hex : string -> int32 option
(** Inverse of {!to_hex}; [None] unless the input is exactly 8 hex
    digits. *)
