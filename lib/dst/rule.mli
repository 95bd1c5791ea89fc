(** Combination-rule strategy (extension beyond the paper).

    The paper's integration semantics use Dempster's rule exclusively,
    but Zadeh's classic example shows normalization dominating the
    outcome under high conflict: two sources at 0.99/0.01 on disjoint
    hypotheses agree only on a third they both barely believe, and
    Dempster's rule makes that third {e certain}. This module names the
    alternatives {!Mass} already implements, plus a κ-threshold
    {e escalation policy} that turns the static S005 high-conflict
    diagnostic into a runtime decision: combine with the primary rule
    while conflict stays below κ₀, and at or above it either switch to a
    fallback rule or quarantine the merge with a typed outcome.

    A policy is honored end-to-end: {!Mass.S.combine_policy}, the merge
    paths of [Erm.Ops] and [Integration], the physical executor's union
    memo (the policy is part of its key), the sharded execution engine,
    and the CLI/REPL surfaces. *)

type t =
  | Dempster  (** Conjunctive consensus, conflict normalized away. *)
  | Yager  (** Conflict mass moves to Ω — ignorance, not renormalization. *)
  | Dubois_prade  (** Conflicting pairs keep their mass on [X ∪ Y]. *)
  | Averaging  (** Pointwise mixing; idempotent, retains conflict. *)
  | Discount_then_combine of float
      (** Discount both operands by α, then Dempster-combine. Softens
          extreme masses before normalization (Shafer's prescription for
          unreliable sources). α must be in [0,1]; α = 1 is Dempster. *)

type fallback =
  | Fallback of t  (** Re-combine with this rule instead. *)
  | Quarantine
      (** Do not combine at all: drop the merge with a typed outcome the
          caller can report ([Quarantined] cells, federate exit 3). *)

type escalation = { kappa0 : float; fallback : fallback }
(** Escalate whenever the operands' conjunctive conflict κ satisfies
    [κ >= kappa0]. [kappa0 = 0] escalates every combination;
    [kappa0 = 1] escalates only κ = 1 — exactly the inputs Dempster's
    rule is undefined on, so the policy degenerates to pure Dempster
    everywhere Dempster is defined. *)

type policy = { primary : t; escalation : escalation option }

val dempster : policy
(** The default: Dempster's rule, no escalation — the paper's
    semantics. *)

val make : ?escalation:escalation -> t -> policy

val escalate : kappa0:float -> fallback -> escalation
(** @raise Invalid_argument if [kappa0] is outside [0,1]. *)

val discount_then_combine : float -> t
(** @raise Invalid_argument if the alpha is outside [0,1]. *)

val default_discount_alpha : float
(** The α used when a surface selects [discount] without a parameter
    (0.9). *)

val name : t -> string
(** The rule family name without parameters: ["discount"], not
    ["discount:0.9"] — used for metric families. *)

val to_string : t -> string
(** Parseable form, parameters included (["discount:0.9"]). *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; also accepts ["dubois_prade"], ["dp"],
    ["average"], ["mixing"] and bare ["discount"]
    (= {!default_discount_alpha}). *)

val fallback_of_string : string -> (fallback, string) result
(** A rule name or ["quarantine"]. *)

val fallback_to_string : fallback -> string

val policy_to_string : policy -> string
(** Human form, e.g. ["dempster [kappa0 0.9 -> yager]"]. *)

val policy_key : policy -> string
(** Canonical key fragment for the union memo: policies that could
    ever produce different outcomes have different keys (float
    parameters are rendered losslessly with [%h]). *)

val metric : t -> string
(** The [dst.combine.rule.*] counter for this rule family. *)

val equal : t -> t -> bool
val equal_policy : policy -> policy -> bool
val pp : Format.formatter -> t -> unit
val pp_policy : Format.formatter -> policy -> unit

val all : t list
(** The parameterless rules — [Discount_then_combine] is excluded
    because it needs an α; use {!discount_then_combine} to add one. *)

(** {1 The session policy}

    Every combination seam ([Erm.Ops] merges, the union memo, the
    integration folds) defaults to this process-global policy, so a
    surface sets it once and naive, physical and sharded execution all
    honor it. Set it before evaluation starts; worker
    domains only read it. *)

val current : unit -> policy
val set_current : policy -> unit

val with_policy : policy -> (unit -> 'a) -> 'a
(** Run with the session policy temporarily replaced (restored on exit
    or exception) — the test harness's seam. *)
