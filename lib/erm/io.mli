(** Text serialization of extended relations (the [.erd] format).

    {v
    # comment
    relation ra
    key  rname : string
    attr street : string
    attr bldg-no : int
    attr speciality : evidence {am, ca, hu, it, mu, si, ta}
    tuple garden | univ.ave. | 2011 | [si^0.5; hu^0.25; ~^0.25] | (1, 1)
    v}

    A file holds one or more [relation] blocks. Tuple rows list the key
    values, then the non-key cells, then the membership pair, separated
    by [|]. Evidence cells use the paper notation of
    {!Dst.Evidence.of_string}; definite cells are literals parsed
    according to the attribute's declared kind. *)

exception Io_error of { line : int; col : int; message : string }
(** [line] is 1-based, or [0] when the error concerns no line of a
    text (an empty CSV document, a relation name unfit for a file
    name); [col] is the 1-based column of the offending token, or [0]
    when no finer position than the line is known. *)

val relations_of_string : string -> Relation.t list
(** Folds {!scan} and raises its first error; duplicate keys and
    CWA_ER-inadmissible rows ([sn = 0]) are found as rows are added to
    their relation.
    @raise Io_error with a 1-based line/column position on malformed
    input. *)

val relation_of_string : string -> Relation.t
(** Expects exactly one relation block. @raise Io_error otherwise. *)

val to_string : Relation.t -> string
(** One relation block: the header lines, then exactly one [tuple] line
    per tuple, each ending in a newline; no cell ever wraps onto a
    second line. Masses and supports print losslessly (see
    {!tuple_to_string}), so {!relation_of_string} gives back the same
    relation, up to the [%g] display of definite [float] cells. *)

(** {2 The scan}

    The one [.erd] grammar, in one pass. The loader folds it and stops
    at the first error; the linter ([Analysis.Erd_lint]) folds it and
    collects every finding. Items come in the loader's order of
    precedence: the line scan first, in line order (headers,
    declarations, directive errors); then each block, from the last to
    the first, as its schema and then its rows in line order. Each
    field of a row parses on its own, to a value or to a positioned
    error, so a bad field does not hide the next one. *)

type error_kind =
  | Declaration  (** a directive or declaration line that does not parse *)
  | Domain  (** an unknown attribute kind or a bad evidence domain *)
  | Arity  (** a row with the wrong number of fields *)
  | Definite  (** a key or definite cell that is not a value of its kind *)
  | Evidence  (** an evidence cell that is malformed or no mass function *)
  | Membership  (** a membership pair that is malformed or out of range *)
  | Key  (** a row field under an evidential key attribute *)
  | Schema  (** declarations that do not make a schema *)

type error = { kind : error_kind; line : int; col : int; message : string }
(** Positioned as {!Io_error}, with the same message. *)

type 'a parsed = ('a, error) result

type decl = {
  line : int;
  col : int;  (** of the declaration body *)
  key : bool;  (** a [key] rather than an [attr] line *)
  name : string;  (** [""] when the line names no attribute *)
  attr : Attr.t parsed;
}
(** A named declaration holds a column of its block's rows even when
    its kind is bad; a cell in that column parses to its error. *)

type cell =
  | Value of Dst.Value.t
  | Evidence of {
      col : int;
      frame : Dst.Domain.t;
      entries : Dst.Evidence.entry list;  (** {!Dst.Evidence.parse} *)
      mass : Dst.Evidence.t parsed;  (** {!Dst.Evidence.of_entries} *)
    }

type membership = {
  col : int;
  sn : float;  (** as written *)
  sp : float;  (** as written *)
  support : Dst.Support.t parsed;  (** the range-checked pair *)
}

type row = {
  line : int;
  col : int;  (** of the row body *)
  key : Dst.Value.t parsed list;
  cells : cell parsed list;
  tm : membership parsed;
}

type item =
  | Header of { line : int; col : int; name : string }
  | Decl of decl
  | Directive_error of error
      (** an unnamed relation, an unknown directive, or a line before
          any relation header *)
  | Block of { line : int; name : string; schema : Schema.t parsed }
      (** a block once all its lines are read: the first failed
          declaration's error, else {!Schema.make}'s verdict *)
  | Row of row parsed
      (** a [tuple] line of the last block delivered; an [Arity] error
          when its field count is wrong *)

val scan : string -> ('a -> item -> 'a) -> 'a -> 'a
(** [scan text f init] folds [f] over the items of [text] in the order
    above. An exception raised by [f] ends the scan. *)

(** {2 Record-level pieces}

    The persistent store frames individual tuples inside checksummed
    segment records, so it needs the schema header and single tuple rows
    as separate round-trippable strings. [to_string] is exactly
    [schema_to_string] followed by one [tuple_to_string] row per tuple. *)

val schema_to_string : Schema.t -> string
(** The [relation]/[key]/[attr] header lines of {!to_string}, without
    any tuple rows. *)

val schema_of_string : string -> Schema.t
(** Inverse of {!schema_to_string}. Tuple rows, if present, are parsed
    and discarded. @raise Io_error on malformed input or when the text
    declares more than one relation. *)

val tuple_to_string : Etuple.t -> string
(** One tuple row body ([k | cell | … | (sn, sp)], no [tuple] keyword).
    Each mass and support prints with {!add_float}, so
    [tuple_of_string] returns a bit-identical tuple (definite [float]
    cells aside, which print with [%g]). *)

val add_float : Buffer.t -> float -> unit
(** Appends the shortest of [%.15g], [%.16g] and [%.17g] that parses
    back to the same double. The digits come from one pass of integer
    arithmetic (Ryū's scaling, rounded half-to-even to 15, 16 and 17
    digits and checked against the double's rounding interval), not
    from formatting and re-parsing. NaN and infinities print as
    [%.15g] prints them. *)

val tuple_of_string : Schema.t -> string -> Etuple.t
(** Inverse of {!tuple_to_string} under the same schema.
    @raise Io_error on malformed input. *)

val load : string -> Relation.t list
(** Reads a [.erd] file. Both failure channels name the file:
    @raise Sys_error on IO failures (message includes the path);
    @raise Io_error on parse failures, with the message prefixed by the
    path. *)

val save : string -> Relation.t list -> unit
(** Writes the relations to one [.erd] file, each block followed by a
    blank line. The text goes to [path ^ ".tmp"] and is renamed over
    [path] only once complete, so a failed or interrupted save never
    leaves a truncated file at [path].
    @raise Sys_error on IO failures. *)

(** {2 Text snapshots}

    A text snapshot is a directory of [.erd] files and nothing else:
    no manifest, one file per relation when written by {!save_dir}, any
    number of relations per file when read by {!load_dir}. *)

val erd_files : string -> string list
(** The paths of the directory's [*.erd] files, in file-name order.
    @raise Sys_error if the directory cannot be read. *)

val load_dir : string -> Relation.t list
(** {!load} of every {!erd_files} path; each file's relations in file
    order. Other files are ignored.
    @raise Sys_error if the directory cannot be read, and as {!load}
    otherwise. *)

val save_dir : string -> (string * Relation.t) list -> unit
(** [save_dir dir [(name, r); …]] creates [dir] if it is missing, then
    {!save}s each [r] to [dir/name.erd] with its schema renamed to
    [name] (a later pair with the same name replaces an earlier one).
    It deletes nothing: files in [dir] that it does not write stay.
    @raise Io_error with [line = 0], before writing anything, when a
    name is empty or holds [/], [\\] or NUL.
    @raise Sys_error on IO failures. *)

val relation_of_csv : Schema.t -> string -> Relation.t
(** Parse a CSV document (RFC 4180 quoting) against a known schema: the
    header row must name the schema's attributes in order followed by
    ["(sn,sp)"]; each record supplies the key values, the cells (evidence
    cells in the paper notation) and the membership pair. Inverse of
    {!Render.to_csv} up to float display precision.
    @raise Io_error with the 1-based record number on malformed input. *)
