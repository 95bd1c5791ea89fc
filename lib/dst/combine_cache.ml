(* The policy key comes first: entries computed under different rules
   or κ-thresholds can never alias, however equal their operands. *)
module Key = struct
  type t = { policy : string; a : Mass.F.t; b : Mass.F.t }

  let equal k1 k2 =
    String.equal k1.policy k2.policy
    && Mass.F.compare k1.a k2.a = 0
    && Mass.F.compare k1.b k2.b = 0

  let hash k =
    (((Hashtbl.hash k.policy * 65599) + Mass.F.hash k.a) * 65599)
    + Mass.F.hash k.b
end

module Table = Hashtbl.Make (Key)

type t = {
  table : Mass.F.outcome Table.t;
  mutable hits : int;
  mutable misses : int;
  (* The last policy looked up and its key: a run keeps one policy, and
     [Rule.policy_key] formats a string. Policies are immutable, so
     physical equality is a sound test. *)
  mutable last_policy : Rule.policy;
  mutable last_key : string;
}

(* Small: sharded runs create one cache per shard per execute. *)
let create () =
  { table = Table.create 16;
    hits = 0;
    misses = 0;
    last_policy = Rule.dempster;
    last_key = Rule.policy_key Rule.dempster }

let hits c = c.hits
let misses c = c.misses
let size c = Table.length c.table

let policy_key c policy =
  if policy != c.last_policy then begin
    c.last_policy <- policy;
    c.last_key <- Rule.policy_key policy
  end;
  c.last_key

(* Every rule here is commutative, so (m1, m2) and (m2, m1) share one
   entry under a canonical ordering of the pair. The outcome stored is
   the one computed in the caller's operand order on the first miss. *)
let combine_policy ?policy c m1 m2 =
  let policy = match policy with Some p -> p | None -> Rule.current () in
  let pkey = policy_key c policy in
  let key =
    if Mass.F.compare m1 m2 <= 0 then { Key.policy = pkey; a = m1; b = m2 }
    else { Key.policy = pkey; a = m2; b = m1 }
  in
  match Table.find_opt c.table key with
  | Some outcome ->
      c.hits <- c.hits + 1;
      Obs.Metrics.incr "combine_cache.hit";
      (* A cache hit must surface the original derivation, not
         re-derive. Within one arena lifetime the result's digest is
         already bound (the miss that populated the entry registered
         it) and relink adds nothing. Only when the cache outlives the
         arena (fresh store, warm cache) is the combination node
         reconstructed from the memoized outcome — no rule is ever
         re-run. *)
      if Obs.Provenance.on () then Mass.F.relink ~policy m1 m2 outcome;
      outcome
  | None ->
      c.misses <- c.misses + 1;
      Obs.Metrics.incr "combine_cache.miss";
      let outcome = Mass.F.combine_policy ~policy m1 m2 in
      Table.add c.table key outcome;
      outcome

let combine_policy_exn ?policy c m1 m2 =
  match combine_policy ?policy c m1 m2 with
  | Mass.F.Combined { result; _ } -> result
  | Mass.F.Conflicted -> raise Mass.F.Total_conflict
  | Mass.F.Quarantined { kappa } -> raise (Mass.F.Quarantined_cell kappa)

let combine_opt c m1 m2 =
  match combine_policy ~policy:Rule.dempster c m1 m2 with
  | Mass.F.Combined { result; kappa; _ } -> Some (result, kappa)
  | Mass.F.Conflicted -> None
  | Mass.F.Quarantined _ -> assert false (* dempster never quarantines *)

let combine c m1 m2 =
  match combine_opt c m1 m2 with
  | Some (m, _) -> m
  | None -> raise Mass.F.Total_conflict
