(** Evidential graceful degradation: integrate the survivors, discount
    the shaky ones, and say exactly what happened to each source.

    The runtime fetches every source under a {!Retry.policy} (and an
    optional total [budget_ms] across all sources), then integrates the
    delivered relations with {!Integration.Multi.integrate}. A source
    that misbehaved is neither dropped nor trusted: its evidence is
    α-discounted (Shafer) before Dempster combination —

    - a source that {e recovered} after [f] failed attempts gets
      [α = alpha_per_failure^f];
    - a delivery that arrived {e past its deadline} is stale and is
      further scaled by [stale_alpha];
    - every α is clamped to [alpha_floor > 0], which preserves
      Theorem-1 closure: discounting by any α > 0 maps [sn ↦ α·sn], so
      stored tuples keep [sn > 0].

    A pristine first-attempt delivery gets α = 1 exactly, so a run with
    an empty fault plan is tuple-for-tuple identical to
    [Multi.integrate]. If fewer than [min_sources] sources deliver, the
    run fails with {!Quorum_not_met} rather than returning an answer
    built on too little evidence — the per-source {!outcome}s are still
    reported so the operator can see who failed and why. *)

type status =
  | Delivered  (** First attempt, on time. *)
  | Recovered of int  (** Delivered after that many failed attempts. *)
  | Stale  (** Delivered, but past the per-source deadline. *)
  | Failed of Source.error

type outcome = {
  source : string;
  attempts : int;
  latency_ms : float;  (** Total simulated time spent on this source. *)
  alpha : float;
      (** Final discount applied before combination (1 = trusted;
          meaningless for failed sources, reported as 1). *)
  status : status;
}

type config = {
  policy : Retry.policy;
  min_sources : int;
      (** Quorum: least delivered sources for a result; 0 means {e all}
          requested sources must deliver. *)
  budget_ms : float option;
      (** Total integration budget across all fetches. *)
  alpha_per_failure : float;
      (** Reliability decay per failed attempt, in (0,1]. *)
  stale_alpha : float;  (** Extra discount for past-deadline deliveries. *)
  alpha_floor : float;  (** Least final α; must be > 0 for closure. *)
  conflict_discount : bool;
      (** Also apply {!Integration.Multi}'s conflict-based discounting. *)
}

val default : config
(** {!Retry.default} policy, quorum 1, no budget, decay 0.8, stale 0.8,
    floor 0.05, no conflict discounting. *)

type report = {
  multi : Integration.Multi.report;
      (** The merged relation plus conflict matrix and the final
          per-source α (delivery-based prior × conflict-based rate). *)
  outcomes : outcome list;  (** In request order, failures included. *)
  elapsed_ms : float;
}

type failure =
  | No_sources
  | Quorum_not_met of {
      delivered : int;
      required : int;
      outcomes : outcome list;
    }

val integrate :
  ?config:config ->
  ?seed:int ->
  ?integrate:
    (?policy:Dst.Rule.policy ->
    ?discount:bool ->
    ?alpha_floor:float ->
    ?prior:(string * float) list ->
    Integration.Multi.source list ->
    Integration.Multi.report) ->
  clock:Clock.t ->
  Source.t list ->
  (report, failure) result
(** Fetch all sources and integrate the survivors. [seed] (default 0)
    drives the backoff jitter; given the same seed, clock start, config
    and sources, the result is deterministic. [integrate] substitutes
    the merge itself (default {!Integration.Multi.integrate}) — the
    federate binary passes [Exec.Engine.integrate] here; any
    substitute must be report-identical to the default, which the
    sharded one is by the conformance harness's contract. Evidence
    combines under the session rule ({!Dst.Rule.current}): [?policy] is
    left to its default, so set the session rule before calling.
    @raise Invalid_argument on a malformed config. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_outcomes : Format.formatter -> outcome list -> unit
val pp_failure : Format.formatter -> failure -> unit
