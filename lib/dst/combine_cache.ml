module Key = struct
  (* The policy key comes first: entries computed under different rules
     or κ-thresholds can never alias, however equal their operands. *)
  type t = string * Mass.F.t * Mass.F.t

  let compare (p1, a1, b1) (p2, a2, b2) =
    let c = String.compare p1 p2 in
    if c <> 0 then c
    else
      let c = Mass.F.compare a1 a2 in
      if c <> 0 then c else Mass.F.compare b1 b2
end

module Pmap = Map.Make (Key)

type t = {
  mutable table : Mass.F.outcome Pmap.t;
  mutable hits : int;
  mutable misses : int;
}

let create () = { table = Pmap.empty; hits = 0; misses = 0 }

let hits c = c.hits
let misses c = c.misses
let size c = Pmap.cardinal c.table

let reset c =
  if Obs.Log.on () then
    Obs.Log.record ~severity:Obs.Log.Debug
      ~fields:
        [ ("entries", string_of_int (Pmap.cardinal c.table));
          ("hits", string_of_int c.hits);
          ("misses", string_of_int c.misses) ]
      Obs.Log.Cache_evict "combine cache dropped";
  c.table <- Pmap.empty;
  c.hits <- 0;
  c.misses <- 0

(* Every rule here is commutative, so (m1, m2) and (m2, m1) share one
   entry under a canonical ordering of the pair. *)
let canonical m1 m2 = if Mass.F.compare m1 m2 <= 0 then (m1, m2) else (m2, m1)

let combine_policy ?policy c m1 m2 =
  let policy = match policy with Some p -> p | None -> Rule.current () in
  let a, b = canonical m1 m2 in
  let key = (Rule.policy_key policy, a, b) in
  match Pmap.find_opt key c.table with
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
      c.table <- Pmap.add key outcome c.table;
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
