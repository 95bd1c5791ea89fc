let fail fmt = Format.kasprintf (fun s -> raise (Eval.Eval_error s)) fmt

let src =
  Logs.Src.create "eridb.query" ~doc:"physical query plan execution"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Plan representation                                                 *)

type access = Seq_scan | Index_eq of { attr : string; value : Dst.Value.t }

type t =
  | Scan of {
      rel : string;
      access : access;
      residual : Ast.pred;
      threshold : Erm.Threshold.t;
      cols : string list option;
    }
  | Filter of {
      input : t;
      where : Ast.pred;
      threshold : Erm.Threshold.t;
      cols : string list option;
    }
  | Hash_join of {
      left : t;
      right : t;
      left_attr : string;
      right_attr : string;
      residual : Ast.pred;
      threshold : Erm.Threshold.t;
    }
  | Loop_join of {
      left : t;
      right : t;
      on : Ast.pred;
      threshold : Erm.Threshold.t;
    }
  | Product of t * t
  | Union of t * t
  | Intersect of t * t
  | Except of t * t
  | Rank of {
      input : t;
      by : Erm.Threshold.field;
      ascending : bool;
      limit : int option;
    }
  | Prefix of { input : t; prefix : string }

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let is_definite schema a =
  match Erm.Schema.find_opt schema a with
  | Some attr -> (
      match Erm.Attr.kind attr with
      | Erm.Attr.Definite _ -> true
      | Erm.Attr.Evidential _ -> false)
  | None -> false

(* An equality between a definite attribute and a constant value. Its
   selection support is crisp — (1,1) on the matching tuples, (0,0)
   elsewhere — so probing an index for the value and filtering by the
   residual is arithmetic-identical to the full scan. *)
let probe_of_conjunct schema = function
  | Ast.Is (a, [ v ]) when is_definite schema a -> Some (a, v)
  | Ast.Cmp (Erm.Predicate.Eq, Ast.Attr a, Ast.Scalar v)
    when is_definite schema a ->
      Some (a, v)
  | Ast.Cmp (Erm.Predicate.Eq, Ast.Scalar v, Ast.Attr a)
    when is_definite schema a ->
      Some (a, v)
  | _ -> None

(* An equality between a definite attribute of each operand — the
   hash-join key. Operands referencing the right schema first are
   swapped into (left, right) order. *)
let equi_of_conjunct sl sr = function
  | Ast.Cmp (Erm.Predicate.Eq, Ast.Attr a, Ast.Attr b) ->
      if is_definite sl a && is_definite sr b then Some (a, b)
      else if is_definite sl b && is_definite sr a then Some (b, a)
      else None
  | _ -> None

(* First conjunct accepted by [pick], with the remaining conjuncts in
   their original order. *)
let extract pick conjs =
  let rec go seen = function
    | [] -> None
    | c :: rest -> (
        match pick c with
        | Some x -> Some (x, List.rev_append seen rest)
        | None -> go (c :: seen) rest)
  in
  go [] conjs

let rec plan env q =
  match q with
  | Ast.Rel name ->
      Scan
        { rel = name;
          access = Seq_scan;
          residual = Ast.True;
          threshold = Erm.Threshold.Always;
          cols = None }
  | Ast.Select { cols; from = Ast.Rel name; where; threshold } -> (
      let schema =
        match List.assoc_opt name env with
        | Some r -> Erm.Relation.schema r
        | None -> fail "unknown relation %s" name
      in
      match extract (probe_of_conjunct schema) (Plan.conjuncts where) with
      | Some ((attr, value), rest) ->
          Scan
            { rel = name;
              access = Index_eq { attr; value };
              residual = Plan.conjoin rest;
              threshold;
              cols }
      | None ->
          Scan { rel = name; access = Seq_scan; residual = where; threshold; cols })
  | Ast.Select { cols; from; where; threshold } ->
      Filter { input = plan env from; where; threshold; cols }
  | Ast.Join { left; right; on; threshold } -> (
      let pl = plan env left and pr = plan env right in
      let sl = Plan.infer_schema env left
      and sr = Plan.infer_schema env right in
      match extract (equi_of_conjunct sl sr) (Plan.conjuncts on) with
      | Some ((left_attr, right_attr), rest) ->
          Hash_join
            { left = pl;
              right = pr;
              left_attr;
              right_attr;
              residual = Plan.conjoin rest;
              threshold }
      | None -> Loop_join { left = pl; right = pr; on; threshold })
  | Ast.Product (a, b) -> Product (plan env a, plan env b)
  | Ast.Union (a, b) -> Union (plan env a, plan env b)
  | Ast.Intersect (a, b) -> Intersect (plan env a, plan env b)
  | Ast.Except (a, b) -> Except (plan env a, plan env b)
  | Ast.Ranked { from; by; ascending; limit } ->
      Rank { input = plan env from; by; ascending; limit }
  | Ast.Prefixed { from; prefix } -> Prefix { input = plan env from; prefix }

let plan_optimized env q = plan env (Plan.optimize env q)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let string_of_pred = function
  | Ast.True -> ""
  | p -> Format.asprintf " [%a]" Ast.pp_pred p

let string_of_threshold = function
  | Erm.Threshold.Always -> ""
  | t -> Format.asprintf " WITH %a" Erm.Threshold.pp t

let string_of_cols = function
  | None -> ""
  | Some cs -> " -> " ^ String.concat ", " cs

let label = function
  | Scan { rel; access = Seq_scan; residual; threshold; cols } ->
      ( "seq-scan",
        rel ^ string_of_pred residual ^ string_of_threshold threshold
        ^ string_of_cols cols )
  | Scan { rel; access = Index_eq { attr; value }; residual; threshold; cols }
    ->
      ( "index-scan",
        Format.asprintf "%s.%s = %a%s%s%s" rel attr Dst.Value.pp value
          (string_of_pred residual)
          (string_of_threshold threshold)
          (string_of_cols cols) )
  | Filter { where; threshold; cols; _ } ->
      ( "filter",
        (match where with
        | Ast.True -> "all"
        | p -> Format.asprintf "%a" Ast.pp_pred p)
        ^ string_of_threshold threshold ^ string_of_cols cols )
  | Hash_join { left_attr; right_attr; residual; threshold; _ } ->
      ( "hash-join",
        Format.asprintf "%s = %s%s%s" left_attr right_attr
          (string_of_pred residual)
          (string_of_threshold threshold) )
  | Loop_join { on; threshold; _ } ->
      ( "loop-join",
        Format.asprintf "%a%s" Ast.pp_pred on (string_of_threshold threshold)
      )
  | Product _ -> ("product", "")
  | Union _ -> ("union", "dempster merge, memoized")
  | Intersect _ -> ("intersect", "key-matched dempster merge")
  | Except _ -> ("except", "key difference")
  | Rank { by; ascending; limit; _ } ->
      ( "rank",
        Format.asprintf "by %s %s%s"
          (match by with Erm.Threshold.Sn -> "sn" | Erm.Threshold.Sp -> "sp")
          (if ascending then "asc" else "desc")
          (match limit with
          | Some k -> Printf.sprintf " limit %d" k
          | None -> "") )
  | Prefix { prefix; _ } -> ("prefix", prefix)

let children = function
  | Scan _ -> []
  | Filter { input; _ } | Rank { input; _ } | Prefix { input; _ } -> [ input ]
  | Hash_join { left; right; _ } | Loop_join { left; right; _ } ->
      [ left; right ]
  | Product (a, b) | Union (a, b) | Intersect (a, b) | Except (a, b) ->
      [ a; b ]

let rec pp_indented indent ppf p =
  let op, detail = label p in
  Format.fprintf ppf "%s%s%s" indent op
    (if detail = "" then "" else " [" ^ detail ^ "]");
  List.iter
    (fun child ->
      Format.pp_print_newline ppf ();
      pp_indented (indent ^ "  ") ppf child)
    (children p)

let pp ppf p = pp_indented "" ppf p
let to_string p = Format.asprintf "%a" pp p

(* ------------------------------------------------------------------ *)
(* Execution context and fan-out configuration                         *)

(* The union memo. A union is a pure function of its operands and the
   rule policy, so the context keeps the [memo_capacity] most recent
   union results, each in an ephemeron keyed on the two operands by
   physical identity: it keeps no operand, or result, alive after the
   operands' last other reference is gone. [arena] is the provenance
   generation a result was derived in while recording; a recording run
   is served only results whose lineage is in the current arena. *)
type derived = {
  policy : string;
  arena : int option;
  result : Erm.Relation.t;
}

type ctx = {
  mutable unions :
    (Erm.Relation.t, Erm.Relation.t, derived) Ephemeron.K2.t list;
}

let memo_capacity = 16
let create_ctx () = { unions = [] }

let arena () =
  if Obs.Provenance.on () then Some (Obs.Provenance.generation ()) else None

let memo_find ctx policy a b =
  let live = arena () in
  List.find_map
    (fun e ->
      match Ephemeron.K2.query e a b with
      | Some d
        when String.equal d.policy policy && (live = None || d.arena = live) ->
          Some d.result
      | Some _ | None -> None)
    ctx.unions

let memo_add ctx policy a b result =
  ctx.unions <-
    Ephemeron.K2.make a b { policy; arena = arena (); result }
    :: List.filteri (fun i _ -> i < memo_capacity - 1) ctx.unions

type sharded = { shards : int; domains : int }

(* ------------------------------------------------------------------ *)
(* Partition and index cache                                           *)

(* Base-relation partitions and their per-shard indexes survive across
   queries and contexts, keyed by (name, shards). An entry is reused
   only while the name binds the physically identical relation value:
   relations are immutable, so a rebound name, an updated relation or a
   store commit all miss the [==] test and rebuild — staleness cannot be
   observed. Entries are ephemerons keyed on that relation, so the cache
   never keeps a relation (or its indexes) alive after its last binding
   is gone. Only the domain that calls the executor touches an entry,
   before any fan-out; the lock covers executors called from several
   domains at once. *)

type scan_entry = {
  c_parts : Erm.Relation.t array;
  mutable c_indexes : (string * Erm.Index.t array) list;
}

let scan_cache :
    (string * int, (Erm.Relation.t, scan_entry) Ephemeron.K1.t) Hashtbl.t =
  Hashtbl.create 8

let scan_lock = Mutex.create ()
let locked f = Mutex.protect scan_lock f
let reset_scan_cache () = locked (fun () -> Hashtbl.reset scan_cache)

let cached_parts ~shards name base =
  locked (fun () ->
      match
        Option.bind
          (Hashtbl.find_opt scan_cache (name, shards))
          (fun eph -> Ephemeron.K1.query eph base)
      with
      | Some e -> e
      | None ->
          let e = { c_parts = Shard.by_key ~shards base; c_indexes = [] } in
          Hashtbl.replace scan_cache (name, shards) (Ephemeron.K1.make base e);
          e)

(* Like every exec.* metric, the build/reuse counters only count work
   done for a real fan-out. *)
let cached_indexes ~shards e attr =
  let note name = if shards > 1 then Obs.Metrics.incr name in
  locked (fun () ->
      match List.assoc_opt attr e.c_indexes with
      | Some idxs ->
          note "exec.index.reuse";
          idxs
      | None ->
          let idxs = Array.map (fun p -> Erm.Index.build p attr) e.c_parts in
          e.c_indexes <- (attr, idxs) :: e.c_indexes;
          note "exec.index.build";
          idxs)

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)

type report = {
  r_op : string;
  r_detail : string;
  r_stats : Stats.t;
  r_children : report list;
}

(* Timing flows through the default tracer's clock so a simulated clock
   (ERIDB_CLOCK=virtual) makes per-operator wall times deterministic. *)
let now_ns () = (Obs.Trace.clock Obs.Trace.default).Obs.Clock.now_ms () *. 1e6

let rel_of env name =
  match List.assoc_opt name env with
  | Some r -> r
  | None -> fail "unknown relation %s" name

(* The Select arm of Eval.eval, verbatim: bind, select, project. *)
let select_project input where threshold cols =
  let schema = Erm.Relation.schema input in
  let pred = Eval.bind_pred (Erm.Schema.find_opt schema) where in
  let selected = Erm.Ops.select ~threshold pred input in
  match cols with
  | None -> selected
  | Some names -> (
      try Erm.Ops.project names selected
      with Erm.Schema.Schema_error m -> fail "projection: %s" m)

let lookup_two sa sb a =
  match Erm.Schema.find_opt sa a with
  | Some attr -> Some attr
  | None -> Erm.Schema.find_opt sb a

let note_shard_rows parts =
  if Obs.Metrics.on () then
    Array.iter
      (fun r ->
        Obs.Metrics.observe "exec.shard.rows"
          (float_of_int (Erm.Relation.cardinal r)))
      parts

let sum f tallies = Array.fold_left (fun n t -> n + f t) 0 tallies

let execute_measured ?ctx ?(sharded = { shards = 1; domains = 1 }) env p =
  let ctx = match ctx with Some c -> c | None -> create_ctx () in
  (* Lineage ids are allocation-ordered, so only an unpartitioned run
     reproduces the arena byte for byte: recording forces one shard. *)
  let shards = if Obs.Provenance.on () then 1 else max 1 sharded.shards in
  let workers = max 1 sharded.domains in
  if shards > 1 then begin
    Obs.Metrics.gauge "exec.shards" (float_of_int shards);
    Obs.Metrics.gauge "exec.workers" (float_of_int workers)
  end;
  let event kind op fields msg =
    if Obs.Log.on () then
      Obs.Log.record ~severity:Obs.Log.Debug
        ~fields:(("op", "exec." ^ op) :: fields)
        kind
        (msg ^ " exec." ^ op)
  in
  (* Run [body i inputs] for each shard [i] of [partition ()] and merge
     the per-shard relations; the per-shard tallies [body] returns come
     back in shard order, for the caller to sum after the barrier. One
     shard runs [body 0] inline, with no merge and no exec.* telemetry.
     The pool forks a telemetry buffer per shard and merges them in
     shard order, so recordings are identical at every worker count.
     Key-range shards concatenate back in order; [merge] differs only
     for the join-value shards of a hash join. *)
  let fan_out_tallied ?(merge = Shard.merge) op partition body =
    if shards = 1 then
      let out, tally = body 0 (partition ()) in
      (out, [| tally |])
    else
      let go () =
        let inputs = partition () in
        event Obs.Log.Shard_spawn op
          [ ("shards", string_of_int shards);
            ("workers", string_of_int workers) ]
          "fan out";
        let outs =
          Pool.run ~domains:workers ~tasks:shards (fun i -> body i inputs)
        in
        let parts = Array.map fst outs in
        note_shard_rows parts;
        let out = merge parts in
        event Obs.Log.Shard_merge op
          [ ("rows", string_of_int (Erm.Relation.cardinal out)) ]
          "merged";
        (out, Array.map snd outs)
      in
      if Obs.Trace.on () then
        Obs.Trace.with_span ~cat:"exec"
          ~args:[ ("shards", string_of_int shards) ]
          ("exec." ^ op) go
      else go ()
  in
  let fan_out op partition body =
    fst (fan_out_tallied op partition (fun i inputs -> (body i inputs, ())))
  in
  let by_key r () = Shard.by_key ~shards r in
  let by_keys ra rb () = Shard.by_keys ~shards ra rb in
  let card = Erm.Relation.cardinal in
  let rec exec p =
    if Obs.Trace.on () then
      let op, detail = label p in
      Obs.Trace.with_span ~cat:"query.physical"
        ~args:[ ("detail", detail) ]
        op
        (fun () -> exec_node p)
    else exec_node p
  and exec_node p =
    let stats = Stats.create () in
    let timed f =
      let t0 = now_ns () in
      let out = f () in
      stats.Stats.wall_ns <- now_ns () -. t0;
      out
    in
    (* [pruned] defaults to the tuples the operator dropped. *)
    let finish ~children ~rows_in ?pruned out =
      stats.Stats.rows_in <- rows_in;
      stats.Stats.rows_out <- card out;
      stats.Stats.pruned <- Option.value pruned ~default:(rows_in - card out);
      let op, detail = label p in
      Stats.publish ~op stats;
      Log.debug (fun m -> m "%s [%s] %s" op detail (Stats.to_string stats));
      (out, { r_op = op; r_detail = detail; r_stats = stats; r_children = children })
    in
    match p with
    | Scan { rel; access = Seq_scan; residual; threshold; cols } ->
        let base = rel_of env rel in
        let out =
          timed (fun () ->
              match (residual, threshold, cols) with
              | Ast.True, Erm.Threshold.Always, None ->
                  (* A bare scan selects nothing: it is its bound relation
                     at every shard count, less any sn = 0 tuples of an
                     unchecked one, so repeated unions of bound relations
                     meet in the memo. *)
                  Erm.Relation.filter
                    (fun t -> Dst.Support.positive (Erm.Etuple.tm t))
                    base
              | _ ->
                  fan_out "scan"
                    (fun () ->
                      if shards = 1 then [| base |]
                      else (cached_parts ~shards rel base).c_parts)
                    (fun i parts ->
                      select_project parts.(i) residual threshold cols))
        in
        finish ~children:[] ~rows_in:(card base) out
    | Scan { rel; access = Index_eq { attr; value }; residual; threshold; cols }
      ->
        (* A per-shard probe is exact: the bucket union over shards is the
           whole-relation bucket, and the residual runs per tuple. It
           still counts as one probe. *)
        let base = rel_of env rel in
        let out, buckets =
          timed (fun () ->
              fan_out_tallied "scan"
                (fun () ->
                  let e = cached_parts ~shards rel base in
                  (e.c_parts, cached_indexes ~shards e attr))
                (fun i (parts, idxs) ->
                  let bucket = Erm.Index.select_eq idxs.(i) parts.(i) value in
                  (select_project bucket residual threshold cols, card bucket)))
        in
        let candidates = sum Fun.id buckets in
        Obs.Metrics.observe "physical.index_probe.rows" (float_of_int candidates);
        if candidates > 0 then stats.Stats.index_hits <- 1
        else stats.Stats.index_misses <- 1;
        finish ~children:[] ~rows_in:candidates out
    | Filter { input; where; threshold; cols } ->
        let child, crep = exec input in
        let out =
          timed (fun () ->
              fan_out "filter" (by_key child) (fun i parts ->
                  select_project parts.(i) where threshold cols))
        in
        finish ~children:[ crep ] ~rows_in:(card child) out
    | Hash_join { left; right; left_attr; right_attr; residual; threshold } ->
        let ra, arep = exec left in
        let rb, brep = exec right in
        let sa = Erm.Relation.schema ra and sb = Erm.Relation.schema rb in
        let pred = Eval.bind_pred (lookup_two sa sb) residual in
        let out, tallies =
          timed (fun () ->
              fan_out_tallied ~merge:Shard.merge_values "hash-join"
                (fun () ->
                  (* Partition both sides by the join value: equal values —
                     the only pairs the equi-join keeps — share a shard. *)
                  ( Shard.by_value ~shards ~attr:left_attr ra,
                    Shard.by_value ~shards ~attr:right_attr rb ))
                (fun i (pa, pb) ->
                  let hits = ref 0 and misses = ref 0 and pruned = ref 0 in
                  let tally ~hit ~matched ~kept =
                    incr (if hit then hits else misses);
                    pruned := !pruned + matched - kept
                  in
                  let out =
                    try
                      Erm.Ops.join_indexed ~threshold ~residual:pred ~tally
                        ~left_attr ~right_attr pa.(i) pb.(i)
                    with Erm.Schema.Schema_error m -> fail "join: %s" m
                  in
                  (out, (!hits, !misses, !pruned))))
        in
        stats.Stats.index_hits <- sum (fun (h, _, _) -> h) tallies;
        stats.Stats.index_misses <- sum (fun (_, m, _) -> m) tallies;
        finish ~children:[ arep; brep ]
          ~rows_in:(card ra + card rb)
          ~pruned:(sum (fun (_, _, p) -> p) tallies)
          out
    | Loop_join { left; right; on; threshold } ->
        let ra, arep = exec left in
        let rb, brep = exec right in
        let sa = Erm.Relation.schema ra and sb = Erm.Relation.schema rb in
        let pred = Eval.bind_pred (lookup_two sa sb) on in
        (* Left-only partition, right replicated: each output tuple's key
           starts with its left tuple's key, so each shard's outputs stay
           inside its left key range. *)
        let out =
          timed (fun () ->
              fan_out "loop-join" (by_key ra) (fun i parts ->
                  try Erm.Ops.join ~threshold pred parts.(i) rb
                  with Erm.Schema.Schema_error m -> fail "join: %s" m))
        in
        finish ~children:[ arep; brep ]
          ~rows_in:(card ra + card rb)
          ~pruned:((card ra * card rb) - card out)
          out
    | Product (a, b) ->
        let ra, arep = exec a in
        let rb, brep = exec b in
        let out =
          timed (fun () ->
              fan_out "product" (by_key ra) (fun i parts ->
                  try Erm.Ops.product parts.(i) rb
                  with Erm.Schema.Schema_error m -> fail "product: %s" m))
        in
        finish ~children:[ arep; brep ]
          ~rows_in:(card ra + card rb)
          ~pruned:((card ra * card rb) - card out)
          out
    | Union (a, b) ->
        let ra, arep = exec a in
        let rb, brep = exec b in
        (* One memo lookup per union node, before any fan-out, so the
           memo counters do not depend on the shard count. A union that
           raises stores nothing. *)
        let policy = Dst.Rule.policy_key (Dst.Rule.current ()) in
        let out =
          timed (fun () ->
              match memo_find ctx policy ra rb with
              | Some out ->
                  stats.Stats.cache_hits <- 1;
                  Obs.Metrics.incr "union_memo.hit";
                  out
              | None ->
                  stats.Stats.cache_misses <- 1;
                  Obs.Metrics.incr "union_memo.miss";
                  let out =
                    fan_out "union" (by_keys ra rb) (fun i (pa, pb) ->
                        try Erm.Ops.union pa.(i) pb.(i)
                        with Erm.Ops.Incompatible_schemas m ->
                          fail "union: %s" m)
                  in
                  memo_add ctx policy ra rb out;
                  out)
        in
        finish ~children:[ arep; brep ] ~rows_in:(card ra + card rb) out
    | Intersect (a, b) ->
        let ra, arep = exec a in
        let rb, brep = exec b in
        let out =
          timed (fun () ->
              fan_out "intersect" (by_keys ra rb) (fun i (pa, pb) ->
                  try Erm.Ops.intersection pa.(i) pb.(i)
                  with Erm.Ops.Incompatible_schemas m -> fail "intersect: %s" m))
        in
        finish ~children:[ arep; brep ] ~rows_in:(card ra + card rb) out
    | Except (a, b) ->
        let ra, arep = exec a in
        let rb, brep = exec b in
        let out =
          timed (fun () ->
              fan_out "except" (by_keys ra rb) (fun i (pa, pb) ->
                  try Erm.Ops.difference pa.(i) pb.(i)
                  with Erm.Ops.Incompatible_schemas m -> fail "except: %s" m))
        in
        (* A difference that removes nothing keeps [ra]'s very tuples;
           one shard returns [ra] itself, so every shard count does, and
           the union memo sees the same operands at every shard count. *)
        let out = if card out = card ra then ra else out in
        finish ~children:[ arep; brep ] ~rows_in:(card ra) out
    | Rank { input; by; ascending; limit } ->
        (* A LIMIT cuts globally, so rank runs on the merged child. *)
        let child, crep = exec input in
        let order =
          match by with
          | Erm.Threshold.Sn -> Erm.Rank.By_sn
          | Erm.Threshold.Sp -> Erm.Rank.By_sp
        in
        let out =
          timed (fun () ->
              match limit with
              | None -> child
              | Some k ->
                  if ascending then Erm.Rank.bottom ~order k child
                  else Erm.Rank.top ~order k child)
        in
        finish ~children:[ crep ] ~rows_in:(card child) ~pruned:0 out
    | Prefix { input; prefix } ->
        let child, crep = exec input in
        let out =
          timed (fun () ->
              try Erm.Ops.rename_attrs (fun n -> prefix ^ n) child
              with Erm.Schema.Schema_error m -> fail "prefix: %s" m)
        in
        finish ~children:[ crep ] ~rows_in:(card child) ~pruned:0 out
  in
  exec p

let execute ?ctx ?sharded env p = fst (execute_measured ?ctx ?sharded env p)

let eval_fast ?ctx ?sharded env q =
  execute ?ctx ?sharded env (plan_optimized env q)

let run ?ctx ?sharded env input = eval_fast ?ctx ?sharded env (Parser.parse input)
