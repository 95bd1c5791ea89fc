type source = { source_name : string; source_relation : Erm.Relation.t }

type report = {
  integrated : Erm.Relation.t;
  conflicts : (string * Erm.Ops.conflict) list;
  conflict_matrix : (string * string * float) list;
  reliabilities : (string * float) list;
}

exception No_sources

let conflict_matrix sources =
  let rec pairs = function
    | a :: rest ->
        List.map
          (fun b ->
            let assessment =
              Reliability.assess a.source_relation b.source_relation
            in
            (a.source_name, b.source_name, assessment.Reliability.mean_conflict))
          rest
        @ pairs rest
    | [] -> []
  in
  pairs sources

let reliability_from_matrix matrix name =
  let kappas =
    List.filter_map
      (fun (a, b, k) ->
        if String.equal a name || String.equal b name then Some k else None)
      matrix
  in
  match kappas with
  | [] -> 1.0
  | _ ->
      let mean =
        List.fold_left ( +. ) 0.0 kappas /. float_of_int (List.length kappas)
      in
      Float.max 0.0 (Float.min 1.0 (1.0 -. mean))

let reliabilities ?(discount = false) ?(alpha_floor = 0.0) ?(prior = [])
    matrix sources =
  if alpha_floor < 0.0 || alpha_floor > 1.0 then
    invalid_arg "Multi.integrate: alpha_floor outside [0,1]";
  List.iter
    (fun (name, a) ->
      if a < 0.0 || a > 1.0 then
        invalid_arg
          (Printf.sprintf "Multi.integrate: prior for %s outside [0,1]" name))
    prior;
  List.map
    (fun s ->
      let conflict_alpha =
        if discount then reliability_from_matrix matrix s.source_name
        else 1.0
      in
      let prior_alpha =
        match List.assoc_opt s.source_name prior with
        | Some a -> a
        | None -> 1.0
      in
      (s.source_name, Float.max alpha_floor (prior_alpha *. conflict_alpha)))
    sources

let provenance_mark () =
  if Obs.Provenance.on () then Obs.Provenance.count () else 0

(* One absorption step per source: the [from, to) node range lets the
   audit attribute every combination's κ to the source whose absorption
   produced it. *)
let record_step name mark =
  if Obs.Provenance.on () then begin
    let upto = Obs.Provenance.count () in
    ignore
      (Obs.Provenance.add Obs.Provenance.Step ("absorb " ^ name)
         ~args:
           [ ("source", name);
             ("from", string_of_int mark);
             ("to", string_of_int upto) ]);
    if Obs.Metrics.on () then
      for i = mark to upto - 1 do
        let n = Obs.Provenance.node i in
        match (n.Obs.Provenance.kind, n.Obs.Provenance.kappa) with
        | Obs.Provenance.Combine, Some k ->
            Obs.Metrics.observe ("dst.combine.kappa_by_source." ^ name) k
        | _ -> ()
      done
  end

let shard_event kind fields msg =
  if Obs.Log.on () then
    Obs.Log.record ~severity:Obs.Log.Debug
      ~fields:(("op", "exec.integrate") :: fields)
      kind (msg ^ " exec.integrate")

let integrate_inner ?policy ?discount ?alpha_floor ?prior
    ?(sharded = { Query.Physical.shards = 1; domains = 1 }) sources =
  (* Knob validation precedes any observable work (provenance
     registration included), even when there is nothing to fold. *)
  ignore (reliabilities ?discount ?alpha_floor ?prior [] []);
  match sources with
  | [] -> raise No_sources
  | first :: rest ->
      (* Sources register before any discounting or merging so that
         discount and combination hooks resolve their operands to
         Source leaves instead of anonymous operands. *)
      if Obs.Provenance.on () then
        List.iter
          (fun s ->
            Erm.Lineage.register_relation ~name:s.source_name
              s.source_relation)
          sources;
      (* Lineage ids are allocation-ordered, so only an unpartitioned
         run reproduces the arena: recording forces one shard. *)
      let shards =
        if Obs.Provenance.on () then 1 else max 1 sharded.Query.Physical.shards
      in
      let workers = max 1 sharded.Query.Physical.domains in
      (* Reliabilities come from the global conflict matrix — a
         per-shard matrix would change the discount rates — and sources
         are discounted whole, a per-tuple operation, so partitioning
         after discounting is exact. *)
      let matrix = conflict_matrix sources in
      let reliabilities =
        reliabilities ?discount ?alpha_floor ?prior matrix sources
      in
      let prepared s =
        let alpha = List.assoc s.source_name reliabilities in
        if alpha >= 1.0 then s.source_relation
        else begin
          let d = Reliability.discount_relation alpha s.source_relation in
          (* Evidence cells get Discount nodes from the Mass hook; the
             membership support is discounted arithmetically, so its
             lineage is recorded here. *)
          if Obs.Provenance.on () then
            Erm.Lineage.record_discount ~alpha s.source_relation d;
          d
        end
      in
      (* Every source is cut at the same pivots, so shard i covers one
         key range of all of them; discounting keeps keys, so the
         pivots come from the sources as given. Partitions are lazy so
         that one inline shard discounts each source inside its own
         absorption step, as the provenance ranges require; several
         shards force them all before the fan-out. *)
      let pivots =
        Query.Shard.pivots ~shards
          (List.map (fun s -> s.source_relation) sources)
      in
      let parts s = lazy (Query.Shard.cut ~shards pivots (prepared s)) in
      let first_parts = parts first in
      let rest_parts = List.map (fun s -> (s.source_name, parts s)) rest in
      (* Each shard folds its slice of every source, left to right, and
         returns its conflict lists in absorption order. *)
      let absorb_shard i =
        let first = (Lazy.force first_parts).(i) in
        (* Every union keeps only sn > 0 tuples (the closure of §3.6); a
           lone source meets no union, so it is filtered here alike. *)
        let first =
          if rest_parts = [] then
            Erm.Relation.filter
              (fun t -> Dst.Support.positive (Erm.Etuple.tm t))
              first
          else first
        in
        let merged, confs =
          List.fold_left
            (fun (acc, confs) (name, parts) ->
              let mark = provenance_mark () in
              let part = (Lazy.force parts).(i) in
              let merged, cs = Erm.Ops.union_report ?policy acc part in
              record_step name mark;
              (merged, cs :: confs))
            (first, []) rest_parts
        in
        (merged, List.rev confs)
      in
      let integrated, per_source =
        if shards = 1 then absorb_shard 0
        else begin
          ignore (Lazy.force first_parts);
          List.iter (fun (_, p) -> ignore (Lazy.force p)) rest_parts;
          shard_event Obs.Log.Shard_spawn
            [ ("shards", string_of_int shards);
              ("workers", string_of_int workers) ]
            "fan out";
          let results =
            Query.Pool.run ~domains:workers ~tasks:shards absorb_shard
          in
          let integrated = Query.Shard.merge (Array.map fst results) in
          shard_event Obs.Log.Shard_merge
            [ ("rows", string_of_int (Erm.Relation.cardinal integrated)) ]
            "merged";
          (* Each shard's lists ascend by key within its key range, so
             concatenating them in shard order is the unsharded order. *)
          let per_source =
            Array.fold_right
              (fun (_, css) acc -> List.map2 ( @ ) css acc)
              results
              (List.map (fun _ -> []) rest_parts)
          in
          (integrated, per_source)
        end
      in
      (* Grouped by source in absorption order, ascending key within a
         source. *)
      let conflicts =
        List.concat
          (List.map2
             (fun (name, _) cs -> List.map (fun c -> (name, c)) cs)
             rest_parts per_source)
      in
      if Obs.Metrics.on () then begin
        Obs.Metrics.incr ~by:(List.length sources) "integration.sources";
        Obs.Metrics.incr ~by:(List.length conflicts) "integration.conflicts";
        List.iter
          (fun (_, _, k) -> Obs.Metrics.observe "integration.mean_kappa" k)
          matrix
      end;
      { integrated; conflicts; conflict_matrix = matrix; reliabilities }

type change = Changed of Erm.Etuple.t | Dropped of Erm.Etuple.t

(* One absorption step in O(changed entities): only the delta's keys are
   visited, every untouched tuple of [into] rides along structurally.
   Per-key outcomes go through Erm.Ops.merge_report — the exact function
   union_report applies — so folding a delta into a stored merge is
   bit-identical to re-integrating all sources from scratch (Dempster's
   rule is associative and integrate folds left-to-right). *)
let absorb_delta ?policy ~into s =
  let schema = Erm.Relation.schema into in
  if not (Erm.Schema.union_compatible schema (Erm.Relation.schema s.source_relation))
  then
    raise
      (Erm.Ops.Incompatible_schemas
         (Format.asprintf "%s and %s are not union-compatible"
            (Erm.Schema.name schema)
            (Erm.Schema.name (Erm.Relation.schema s.source_relation))));
  if Obs.Provenance.on () then
    Erm.Lineage.register_relation ~name:s.source_name s.source_relation;
  let mark = provenance_mark () in
  let conflicts = ref [] in
  let record key attr detail =
    conflicts :=
      { Erm.Ops.conflict_key = key;
        conflict_attr = attr;
        conflict_detail = detail }
      :: !conflicts
  in
  let changes = ref [] in
  let merged =
    Erm.Relation.fold
      (fun t acc ->
        match Erm.Relation.find_opt into (Erm.Etuple.key t) with
        | None when not (Dst.Support.positive (Erm.Etuple.tm t)) ->
            (* union_report drops an unmatched sn = 0 tuple too. *)
            acc
        | None ->
            changes := Changed t :: !changes;
            Erm.Relation.replace acc t
        | Some old -> (
            match Erm.Ops.merge_report ?policy schema ~record old t with
            | Some m when Dst.Support.positive (Erm.Etuple.tm m) ->
                changes := Changed m :: !changes;
                Erm.Relation.replace acc m
            | Some _ | None ->
                (* union_report omits the pair (conflict, or the merged
                   membership lost all necessary support). *)
                changes := Dropped old :: !changes;
                Erm.Relation.remove acc (Erm.Etuple.key old)))
      s.source_relation into
  in
  record_step s.source_name mark;
  (merged, List.rev !conflicts, List.rev !changes)

let integrate ?policy ?discount ?alpha_floor ?prior ?sharded sources =
  let body () =
    integrate_inner ?policy ?discount ?alpha_floor ?prior ?sharded sources
  in
  if Obs.Trace.on () then
    Obs.Trace.with_span ~cat:"integration"
      ~args:
        [ ("detail", Printf.sprintf "%d sources" (List.length sources)) ]
      "integration.multi" body
  else body ()

let pp ppf r =
  Format.fprintf ppf "@[<v>integrated %d tuples from %d sources"
    (Erm.Relation.cardinal r.integrated)
    (List.length r.reliabilities);
  List.iter
    (fun (name, alpha) ->
      Format.fprintf ppf "@,  %s: reliability %.3f" name alpha)
    r.reliabilities;
  List.iter
    (fun (a, b, k) ->
      Format.fprintf ppf "@,  mean kappa(%s, %s) = %.3f" a b k)
    r.conflict_matrix;
  List.iter
    (fun (name, c) ->
      Format.fprintf ppf "@,  conflict absorbing %s: %a" name
        Erm.Ops.pp_conflict c)
    r.conflicts;
  Format.fprintf ppf "@]"
