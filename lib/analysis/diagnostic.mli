(** Typed diagnostics shared by the plan checker and the [.erd] linter.

    A diagnostic pins a severity, a stable machine-readable code (["Q…"]
    for query/plan findings, ["E…"] for [.erd] findings), an optional
    source position, and a human-readable message. Both front ends of
    the analyzer produce values of this type; every consumer (CLI, REPL,
    [federate --validate], CI) renders or filters them uniformly. *)

type severity = Info | Warning | Error

type t = {
  severity : severity;
  code : string;  (** Stable identifier, e.g. ["Q005"], ["E012"]. *)
  file : string option;
  line : int;  (** 1-based; [0] = unknown. *)
  col : int;  (** 1-based; [0] = unknown. *)
  message : string;
}

val error :
  ?file:string -> ?line:int -> ?col:int -> code:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val warning :
  ?file:string -> ?line:int -> ?col:int -> code:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val info :
  ?file:string -> ?line:int -> ?col:int -> code:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val severity_to_string : severity -> string

val compare : t -> t -> int
(** Position order (file, line, col), then decreasing severity, then
    code — the order reports are printed in. *)

val is_error : t -> bool

val max_severity : t list -> severity option
(** [None] on an empty list. *)

val pp_position :
  file:string option -> line:int -> col:int -> Format.formatter -> unit
(** [FILE:LINE:COL: ], omitting unknown parts (a column without a line
    is unknown); nothing when all three are. The one position format of
    every diagnostic and every failure a binary reports. *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: error[Q005]: message], positioned by {!pp_position}. *)

val to_string : t -> string

val json_escape : string -> string
(** Minimal JSON string escaping (quotes, backslashes, control
    characters) shared by every JSON emitter in the analyzer. *)

val to_json : ?priority:string -> t -> string
(** One JSON object with fields [severity], [code], [file], [line],
    [col], [message] — plus a [priority] field (the catalog's
    capitalized spelling, e.g. ["High"]) when one is supplied.
    Deterministic field order. *)
