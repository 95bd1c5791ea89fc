let index ~shards s =
  if shards <= 1 then 0
  else
    let d = Digest.string s in
    let b i = Char.code d.[i] in
    ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3) mod shards

(* Each tuple's shard is digested once, in ascending key order; each
   shard is then a structural filter of the input map, which visits the
   tuples in the same order. *)
let partition ~shards key r =
  if shards <= 1 then [| r |]
  else begin
    let owner = Array.make (Erm.Relation.cardinal r) 0 in
    let pos = ref 0 in
    Erm.Relation.iter
      (fun t ->
        owner.(!pos) <- index ~shards (key t);
        incr pos)
      r;
    Array.init shards (fun i ->
        pos := 0;
        Erm.Relation.filter
          (fun _ ->
            let p = !pos in
            incr pos;
            owner.(p) = i)
          r)
  end

let by_key ~shards r = partition ~shards Erm.Lineage.key_string r

let by_value ~shards ~attr r =
  let schema = Erm.Relation.schema r in
  partition ~shards
    (fun t -> Dst.Value.to_string (Erm.Etuple.definite_value schema t attr))
    r

(* Fold the shards back together in ascending shard order. The union is
   key-ordered, so the merged value is independent of that order anyway,
   and a Duplicate_key escape means the partition invariant broke — fail
   loudly rather than mask it. *)
let merge parts =
  let fold () =
    Array.fold_left Erm.Relation.disjoint_union
      (Erm.Relation.empty (Erm.Relation.schema parts.(0)))
      parts
  in
  if not (Obs.Metrics.on ()) then fold ()
  else
    let now () =
      (Obs.Trace.clock Obs.Trace.default).Obs.Clock.now_ms () *. 1e6
    in
    let t0 = now () in
    let out = fold () in
    Obs.Metrics.observe "exec.merge.ns" (now () -. t0);
    out
