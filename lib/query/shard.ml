let index ~shards s =
  if shards <= 1 then 0
  else
    let d = Digest.string s in
    let b i = Char.code d.[i] in
    ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3) mod shards

let partition ~shards key r =
  if shards <= 1 then [| r |]
  else begin
    let schema = Erm.Relation.schema r in
    let buckets = Array.make shards [] in
    Erm.Relation.iter
      (fun t ->
        let i = index ~shards (key t) in
        buckets.(i) <- t :: buckets.(i))
      r;
    Array.map (fun ts -> Erm.Relation.of_tuples schema (List.rev ts)) buckets
  end

let by_key ~shards r = partition ~shards Erm.Lineage.key_string r

let by_value ~shards ~attr r =
  let schema = Erm.Relation.schema r in
  partition ~shards
    (fun t -> Dst.Value.to_string (Erm.Etuple.definite_value schema t attr))
    r

(* Fold the shards back together in ascending shard order. Relation.add
   inserts into a key-ordered map, so the merged value is independent of
   that order anyway, and a Duplicate_key escape means the partition
   invariant broke — fail loudly rather than mask it. *)
let merge parts =
  let now () = (Obs.Trace.clock Obs.Trace.default).Obs.Clock.now_ms () *. 1e6 in
  let t0 = now () in
  let out =
    Array.fold_left
      (fun acc part ->
        Erm.Relation.fold (fun t acc -> Erm.Relation.add acc t) part acc)
      (Erm.Relation.empty (Erm.Relation.schema parts.(0)))
      parts
  in
  Obs.Metrics.observe "exec.merge.ns" (now () -. t0);
  out
