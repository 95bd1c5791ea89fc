(** Store-side delta absorption: fold a source update into a stored
    merged relation in O(changed entities) with
    {!Integration.Multi.absorb_delta}, and commit its write set.

    Because Dempster's rule is commutative and associative,
    [apply store ~name delta] produces the same merged relation —
    bit-exact, [Float.equal] supports — as re-running
    [Integration.Multi.integrate] from scratch over the original
    sources with [delta] appended (proved by the sixth conformance
    leg). Only the delta's keys are visited; the write set (upserts for
    new/merged tuples, deletes for conflict-dropped ones) commits as
    one new segment via {!Estore.append_commit}. Provenance Step nodes
    record the absorption exactly as a full integration would, so
    [.why] explains delta-derived entities identically. *)

type outcome = {
  relation : Erm.Relation.t;  (** the merged relation after the fold *)
  conflicts : Erm.Ops.conflict list;
  upserts : int;  (** tuples added or re-merged *)
  deletes : int;  (** stored tuples dropped by total conflict / sn = 0 *)
  version : int;  (** store version after the commit *)
}

val apply : Estore.t -> name:string -> Erm.Relation.t -> outcome
(** No-change deltas (empty write set) do not bump the store version.
    @raise Erm.Ops.Incompatible_schemas when the delta's schema is not
    union-compatible with the stored relation;
    @raise Recovery.Store_error / @raise Io.Fault on commit failure —
    the store (on disk and in memory) is left at its previous
    version. *)
