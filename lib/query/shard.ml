(* Pivot i is the key at rank ⌊i·n/shards⌋, read in one ascending walk
   that stops at the last pivot; ties (n < shards) repeat a key. *)
let quantiles ~shards n r =
  let keys = Array.make (shards - 1) [] in
  let rank = ref 0 and next = ref 1 in
  (try
     Erm.Relation.iter
       (fun t ->
         while !next < shards && !next * n / shards = !rank do
           keys.(!next - 1) <- Erm.Etuple.key t;
           incr next
         done;
         if !next = shards then raise Exit;
         incr rank)
       r
   with Exit -> ());
  keys

let pivots ~shards rels =
  if shards <= 1 then [||]
  else
    let largest, n =
      List.fold_left
        (fun (best, size) r ->
          let n = Erm.Relation.cardinal r in
          if n > size then (Some r, n) else (best, size))
        (None, 0) rels
    in
    match largest with None -> [||] | Some r -> quantiles ~shards n r

let cut ~shards pivots r =
  if shards <= 1 then [| r |]
  else begin
    let parts = Array.make shards (Erm.Relation.empty (Erm.Relation.schema r)) in
    let rest = ref r in
    Array.iteri
      (fun i key ->
        let below, above = Erm.Relation.split !rest key in
        parts.(i) <- below;
        rest := above)
      pivots;
    parts.(Array.length pivots) <- !rest;
    parts
  end

let by_key ~shards r = cut ~shards (pivots ~shards [ r ]) r

let by_keys ~shards ra rb =
  let p = pivots ~shards [ ra; rb ] in
  (cut ~shards p ra, cut ~shards p rb)

let index ~shards s =
  let d = Digest.string s in
  let b i = Char.code d.[i] in
  ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3) mod shards

(* Each tuple's shard is digested once, in ascending key order; each
   shard is then a structural filter of the input map, which visits the
   tuples in the same order. *)
let by_value ~shards ~attr r =
  if shards <= 1 then [| r |]
  else begin
    let schema = Erm.Relation.schema r in
    let owner = Array.make (Erm.Relation.cardinal r) 0 in
    let pos = ref 0 in
    Erm.Relation.iter
      (fun t ->
        let v = Erm.Etuple.definite_value schema t attr in
        owner.(!pos) <- index ~shards (Dst.Value.to_string v);
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

(* Fold the shards back together in ascending shard order. A
   Duplicate_key escape means the partition invariant broke — fail
   loudly rather than mask it. *)
let timed_merge combine parts =
  let fold () =
    Array.fold_left combine
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

let merge parts = timed_merge Erm.Relation.append parts
let merge_values parts = timed_merge Erm.Relation.disjoint_union parts
