module P = Query.Physical

let execute cfg ?ctx env plan = P.execute ?ctx ~sharded:cfg env plan
let reset_scan_cache = P.reset_scan_cache
let install () = ()

(* --- sharded integration -------------------------------------------- *)

module M = Integration.Multi

let integrate cfg ?policy ?discount ?alpha_floor ?prior sources =
  if cfg.P.shards <= 1 || Obs.Provenance.on () then
    M.integrate ?policy ?discount ?alpha_floor ?prior sources
  else
    match sources with
    | [] ->
        ignore (M.reliabilities ?discount ?alpha_floor ?prior [] []);
        raise M.No_sources
    | first :: rest ->
        ignore (M.reliabilities ?discount ?alpha_floor ?prior [] []);
        let shards = cfg.P.shards in
        let workers = max 1 cfg.P.domains in
        (* Reliabilities come from the global conflict matrix — a
           per-shard matrix would change the discount rates — and
           sources are discounted whole (a per-tuple operation, so
           partitioning after discounting is exact). *)
        let matrix = M.conflict_matrix sources in
        let reliabilities =
          M.reliabilities ?discount ?alpha_floor ?prior matrix sources
        in
        let prepared s =
          let alpha = List.assoc s.M.source_name reliabilities in
          if alpha >= 1.0 then s.M.source_relation
          else Integration.Reliability.discount_relation alpha s.M.source_relation
        in
        let first_parts = Query.Shard.by_key ~shards (prepared first) in
        let rest_parts =
          List.map
            (fun s -> (s.M.source_name, Query.Shard.by_key ~shards (prepared s)))
            rest
        in
        if Obs.Log.on () then
          Obs.Log.record ~severity:Obs.Log.Debug
            ~fields:
              [ ("op", "exec.integrate");
                ("shards", string_of_int shards);
                ("workers", string_of_int workers) ]
            Obs.Log.Shard_spawn "fan out exec.integrate";
        let shard_results =
          Query.Pool.run ~domains:workers ~tasks:shards (fun i ->
              List.fold_left
                (fun (acc, confs) (name, parts) ->
                  let merged, cs = Erm.Ops.union_report ?policy acc parts.(i) in
                  (merged, confs @ List.map (fun c -> (name, c)) cs))
                (first_parts.(i), [])
                rest_parts)
        in
        let integrated = Query.Shard.merge (Array.map fst shard_results) in
        if Obs.Log.on () then
          Obs.Log.record ~severity:Obs.Log.Debug
            ~fields:
              [ ("op", "exec.integrate");
                ("rows", string_of_int (Erm.Relation.cardinal integrated)) ]
            Obs.Log.Shard_merge "merged exec.integrate";
        (* Canonical conflict order: grouped by source in absorption
           order (as the unsharded fold reports), ascending key within a
           source (the per-shard lists are already ascending, and all
           conflicts of one key live in one shard, so a stable sort by
           key reproduces the unsharded order exactly). *)
        let all_confs =
          List.concat_map (fun (_, confs) -> confs)
            (Array.to_list shard_results)
        in
        let conflicts =
          List.concat_map
            (fun (name, _) ->
              List.stable_sort
                (fun (_, c1) (_, c2) ->
                  List.compare Dst.Value.compare c1.Erm.Ops.conflict_key
                    c2.Erm.Ops.conflict_key)
                (List.filter (fun (n, _) -> String.equal n name) all_confs))
            rest_parts
        in
        if Obs.Metrics.on () then begin
          Obs.Metrics.incr ~by:(List.length sources) "integration.sources";
          Obs.Metrics.incr ~by:(List.length conflicts) "integration.conflicts";
          List.iter
            (fun (_, _, k) -> Obs.Metrics.observe "integration.mean_kappa" k)
            matrix
        end;
        { M.integrated; conflicts; conflict_matrix = matrix; reliabilities }
