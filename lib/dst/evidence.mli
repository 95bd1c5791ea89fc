(** Evidence sets: the uncertain attribute values of the extended
    relational model.

    An evidence set (§2.1, Def.) is a mass function over an attribute's
    domain. This module fixes the float instance {!Mass.F} and adds the
    paper's concrete syntax — [[si^0.5; {hu, si}^0.33; ~^0.17]] with [~]
    denoting Ω — as a parser/printer pair, plus constructors from raw
    counts (the group-voting model of §1.2). *)

type t = Mass.F.t
(** An evidence set is exactly a float mass function. All of {!Mass.F}'s
    operations apply. *)

exception Parse_error of string * string
(** [Parse_error (input, message)]. *)

type entry = {
  mask : Domain.mask;  (** The member's values that lie in the frame. *)
  outside : Value.t list;  (** Its values outside the frame, as written. *)
  mass : float;  (** The mass as written. *)
}
(** One focal element as written. *)

val is_empty : entry -> bool
(** The explicit empty member [{}]: no values in the frame or out. *)

val parse : Domain.t -> string -> (entry list, string) result
(** The first step of {!of_string}: the entries in input order, before
    any mass-function check — zero masses, repeated members, [{}],
    values outside the frame and masses that do not sum to 1 all come
    back as written. [Error message] carries {!of_string}'s syntax
    error message. *)

val of_entries : Domain.t -> entry list -> t
(** The second step of {!of_string}: the mass function of parsed
    entries, repeated members summed and zero masses dropped.
    @raise Parse_error on an explicit empty member [{}].
    @raise Mass.F.Invalid_mass on semantic errors (bad masses, values
    outside the domain). *)

val of_string : Domain.t -> string -> t
(** Parses the paper notation. Grammar (whitespace-insensitive):
    {v
      evidence ::= '[' focal (';' focal)* ']'
      focal    ::= member '^' mass
      member   ::= '~'                      (Ω, the whole domain)
                 | literal                  (singleton)
                 | '{' literal (',' literal)* '}'
      mass     ::= float | int '/' int      (e.g. 0.25 or 1/3)
    v}
    Whitespace (spaces, tabs, carriage returns and newlines) may
    separate any two tokens, so a cell may span several lines.
    Masses must sum to 1 (within the float tolerance).
    @raise Parse_error on syntax errors, including a malformed literal.
    @raise Mass.F.Invalid_mass on semantic errors (bad masses, values
    outside the domain). *)

val to_string : t -> string
(** The paper notation for display, in {!of_string}'s grammar. Masses
    print with [%g], six significant digits, so this is {e not} an
    inverse of {!of_string}: the rounded masses need not sum to 1
    within the 1e-9 tolerance, and on ordinary cells they do not —
    [[a^1/3; b^1/3; c^1/3]] prints as three masses of 0.333333, so
    [of_string f (to_string m)] raises [Invalid_mass]. For an exact
    round trip, write cells with [Erm.Io.to_string] (or
    [Erm.Io.tuple_to_string]), which print masses losslessly. *)

val pp : Format.formatter -> t -> unit

val of_counts : Domain.t -> (Vset.t * int) list -> t
(** [of_counts frame tallies] normalizes integer tallies into masses:
    the paper's vote-statistics consolidation ([d1 ↦ 3 votes, d2 ↦ 2,
    d3 ↦ 1] becomes [[d1^0.5; d2^0.33; d3^0.17]]). Entries with an empty
    set denote abstentions and contribute mass to Ω.
    @raise Mass.F.Invalid_mass if counts are negative or all zero. *)

val of_value_counts : Domain.t -> (Value.t * int) list -> t
(** {!of_counts} restricted to singleton votes. *)

val definite : Domain.t -> Value.t -> t
(** Alias of {!Mass.F.certain}: a certain value as an evidence set. *)
