(** Arena-allocated lineage DAG for evidential derivations.

    Every value the system derives by Dempster's rule — an attribute's
    combined evidence, a tuple's membership support after selection, a
    merged tuple — can be traced back to the stored source tuples it
    came from. The arena records one {!node} per derivation step;
    edges always point from a node to {e earlier} nodes (inputs), so
    the structure is acyclic by construction and depth is computable
    in one forward pass.

    The store follows the same guard discipline as {!Trace} and
    {!Metrics}: one process-wide {!default} arena that starts
    {e disabled}, with every instrumentation site testing {!on} before
    computing digests or labels. A run that never enables provenance
    pays one boolean load per call site and nothing else.

    Nodes are keyed by {e value digests} (see [Dst.Mass.digest]): two
    derivations producing bit-identical values share one node, which
    is what makes the lineage of a physical plan meet the naive
    evaluator's on every shared value. Registration is first-wins: once
    a digest resolves to a node, later derivations of the same value
    reuse it. A memo that hands back a value derived earlier (the
    physical executor's union memo) serves it while recording only if
    it was derived into the current arena, which {!generation} tells
    apart; otherwise the value is derived again, so every derivation
    step is in the arena that {!Why} walks. *)

type kind =
  | Source  (** a stored source tuple's cell or membership support *)
  | Operand  (** a value first seen as a combination input (no history) *)
  | Combine  (** one Dempster combination: κ, normalization, operands *)
  | Discount  (** α-discounting of a mass function or support pair *)
  | Support  (** a selection/join support evaluation (F_SS then F_TM) *)
  | Merge  (** a key-matched tuple merge (∪̂) grouping its per-cell steps *)
  | Step  (** a pipeline step marker (e.g. one source absorbed) *)

type node = {
  id : int;
  kind : kind;
  label : string;  (** human-readable value or step description *)
  kappa : float option;  (** conflict mass κ for combination nodes *)
  norm : float option;  (** normalization factor 1 − κ *)
  alpha : float option;  (** discount rate for {!Discount} nodes *)
  args : (string * string) list;  (** extra key/value detail *)
  inputs : int array;  (** ids of operand nodes; all strictly [< id] *)
}

type t
(** A lineage arena: a growable node array plus a digest index. *)

val create : unit -> t
(** A fresh, enabled arena (explicit arenas are always live). *)

val default : t
(** The arena the compiled-in hooks write to. Starts disabled. *)

val on : unit -> bool
(** Is the default arena recording? The guard every instrumentation
    site tests before doing any work. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : ?store:t -> unit -> unit
(** Drop every node and digest binding. *)

val count : ?store:t -> unit -> int
(** Number of nodes allocated so far (also the next node id). *)

val generation : ?store:t -> unit -> int
(** How many times {!reset} has emptied the arena. A value derived
    while recording at generation [g] has its lineage in the arena for
    as long as the generation stays [g]. *)

val add :
  ?store:t ->
  ?kappa:float ->
  ?norm:float ->
  ?alpha:float ->
  ?args:(string * string) list ->
  ?inputs:int list ->
  kind ->
  string ->
  int
(** [add kind label] allocates a node and returns its id. Input ids
    must already be allocated ([Invalid_argument] otherwise — that is
    a bug in the instrumentation, not a runtime condition). Returns
    [-1] without recording when the store is disabled; call sites are
    expected to guard with {!on} first. *)

val node : ?store:t -> int -> node
(** The node with the given id. @raise Invalid_argument if out of
    range. *)

val nodes : ?store:t -> unit -> node list
(** All nodes in allocation (= topological) order. *)

val register : ?store:t -> string -> int -> unit
(** Bind a value digest to the node that derived it. First-wins: a
    digest already bound keeps its original derivation. *)

val find : ?store:t -> string -> int option
(** The node currently bound to a digest, if any. *)

val find_or_leaf : ?store:t -> ?kind:kind -> string -> label:string -> int
(** Resolve a digest to its node, or allocate a leaf (default kind
    {!Operand}) with the given label and bind the digest to it. This
    is how combination hooks pick up operands whose history predates
    provenance being enabled. Returns [-1] when the store is
    disabled. *)

val max_depth : ?store:t -> unit -> int
(** Longest input chain in the arena: leaves have depth 0, a node is
    1 + the deepest of its inputs. 0 for an empty arena. *)

val leaves : ?store:t -> int -> node list
(** The leaf nodes (no inputs) reachable from a node, deduplicated,
    in id order. *)

val kind_name : kind -> string
(** Lower-case name ([source], [combine], …) used by exports. *)

val publish : ?store:t -> unit -> unit
(** Push [provenance.nodes] and [provenance.max_depth] gauges into
    the default {!Metrics} registry. *)
