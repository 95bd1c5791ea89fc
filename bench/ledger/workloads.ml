(* The four workloads. Each one generates its inputs from the seed as
   .erd files and query text in a work directory (the program only ever
   sees those files), and has a set-up function over them. Set-up loads
   and builds what the session needs; the run loop in ledger.ml times
   it, runs op 0 as part of it, and then runs ops 1, 2, … until the
   run's time is up. Load is one client in a closed loop: ERIDB is a
   library, a REPL and a CLI, and their callers wait for each reply. *)

module Gen = Workload.Gen
module Rng = Workload.Rng

type session = {
  op : int -> unit;  (** The timed operation. *)
  after : int -> unit;  (** Untimed bookkeeping after op i. *)
  block : int;
      (** The traced run alternates traced and untraced ops in blocks
          of this many, one full cycle of the op mix. *)
  check : unit -> (string * bool) list;  (** Output checks, after the loop. *)
  extra : unit -> (string * float) list;
      (** Per-layer numbers only this workload measures (traced run). *)
}

type t = {
  name : string;
  generate : seed:int -> dir:string -> unit;  (** Write the inputs. *)
  setup : seed:int -> dir:string -> unit -> session;
      (** Set up a session over the inputs. *)
}

(* ---- Shared helpers ---- *)

let path dir file = Filename.concat dir file
let save dir name r = Erm.Io.save (path dir (name ^ ".erd")) [ r ]

let rename name r =
  Erm.Relation.map_tuples
    (fun t -> Some t)
    (Erm.Schema.rename_relation name (Erm.Relation.schema r))
    r

let take n r =
  Erm.Relation.of_tuples (Erm.Relation.schema r)
    (List.filteri (fun i _ -> i < n) (Erm.Relation.tuples r))

(* Fresh tuples under keys key<offset> … so they cannot collide with
   another source's. *)
let fresh rng ~size ~offset schema =
  let r = Gen.relation rng ~size schema in
  Erm.Relation.of_tuples schema
    (List.mapi
       (fun i t ->
         Erm.Etuple.make schema
           ~key:[ Dst.Value.string (Printf.sprintf "key%d" (offset + i)) ]
           ~cells:(Erm.Etuple.cells t) ~tm:(Erm.Etuple.tm t))
       (Erm.Relation.tuples r))

let union rels =
  match rels with
  | [] -> invalid_arg "union"
  | r :: rest ->
      List.fold_left
        (fun acc r -> Erm.Relation.fold (fun t acc -> Erm.Relation.add acc t) r acc)
        r rest

let write_lines file lines =
  let oc = open_out file in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        Array.of_list (List.rev acc)
  in
  go []

let file_bytes file = (Unix.stat file).Unix.st_size

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_bytes d =
  Array.fold_left (fun acc f -> acc + file_bytes (Filename.concat d f)) 0 (Sys.readdir d)

(* Store bytes per byte of the relation's own .erd text. *)
let space_amp dir r =
  float_of_int (dir_bytes dir) /. float_of_int (String.length (Erm.Io.to_string r))

let counter = ref 0

let fresh_dir dir stem =
  incr counter;
  path dir (Printf.sprintf "%s-%d" stem !counter)

let vset rng =
  let vs = Rng.sample rng (2 + Rng.int rng 3) [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  String.concat ", " (List.map (Printf.sprintf "v%d") (List.sort compare vs))

let tracing () = !Layers.tracer <> None
let schema = Gen.schema "src"

(* ---- query-mix ---- *)

(* A REPL session over three 5k-tuple sources that share 60% of their
   keys, plus their integrated view m. One shared Physical ctx, inline:
   index probes on m, ranked evidential scans of m, hash joins with an
   evidential residual, and unions of two sources. Mostly the query
   layer over a warm Dempster cache. *)

type kind = Probe | Ranked_scan | Join | Union

let kind_name = function
  | Probe -> "probe"
  | Ranked_scan -> "ranked-scan"
  | Join -> "join"
  | Union -> "union"

let query_text rng = function
  | Probe ->
      Printf.sprintf "SELECT * FROM m WHERE a0 = \"a0-%d\" AND e0 IS {%s} WITH SN > 0.05"
        (Rng.int rng 1000) (vset rng)
  | Ranked_scan ->
      Printf.sprintf
        "SELECT * FROM m WHERE e0 IS {%s} AND e1 IS {%s} WITH SN > 0.2 ORDER BY \
         SN DESC LIMIT 20"
        (vset rng) (vset rng)
  | Join ->
      let i = Rng.int rng 3 in
      let j = (i + 1 + Rng.int rng 2) mod 3 in
      Printf.sprintf
        "(SELECT * FROM s%d WHERE a0 = \"a0-%d\") JOIN (s%d PREFIX r_) ON a0 = \
         r_a0 AND e0 = r_e0"
        i (Rng.int rng 1000) j
  | Union ->
      let i = Rng.int rng 3 in
      let j = (i + 1 + Rng.int rng 2) mod 3 in
      Printf.sprintf "SELECT * FROM (s%d UNION s%d) WHERE e1 IS {%s} WITH SN > 0.1"
        (min i j) (max i j) (vset rng)

(* 40% probes, 30% ranked scans, 20% joins, 10% unions, in a fixed
   order: every run sees the same proportions over any stretch of ops,
   and set-up's op 0 is always a probe. *)
let mix = [| Probe; Ranked_scan; Join; Probe; Ranked_scan; Union; Probe; Join; Ranked_scan; Probe |]
let kind q = mix.(q mod Array.length mix)

let query_mix =
  let size = 5000 and shared = 3000 and queries = 2000 in
  let generate ~seed ~dir =
    let rng = Rng.create seed in
    let s0 = Gen.relation rng ~size schema in
    let base = take shared s0 in
    List.iteri
      (fun i r -> save dir (Printf.sprintf "s%d" i) (rename (Printf.sprintf "s%d" i) r))
      (s0
      :: List.init 2 (fun j ->
             union
               [ Gen.reobserve rng base;
                 fresh rng ~size:(size - shared)
                   ~offset:(size + (j * (size - shared)))
                   schema ]));
    write_lines (path dir "queries.txt") (List.init queries (fun q -> query_text rng (kind q)))
  in
  let setup ~seed:_ ~dir =
    let texts = read_lines (path dir "queries.txt") in
    fun () ->
      let sources =
        List.init 3 (fun i ->
            let name = Printf.sprintf "s%d" i in
            (name, Layers.load_one (path dir (name ^ ".erd"))))
      in
      let m =
        Layers.span "integration.integrate" (fun () ->
            Integration.Multi.integrate
              (List.map
                 (fun (n, r) -> { Integration.Multi.source_name = n; source_relation = r })
                 sources))
      in
      let env = ("m", rename "m" m.Integration.Multi.integrated) :: sources in
      let ctx = Query.Physical.create_ctx () in
      (* Results of every 50th query, checked against the naive
         evaluator after the loop. *)
      let kept = Hashtbl.create 64 in
      let op i =
        let q = i mod queries in
        let out = Layers.execute ~ctx env (Layers.plan env texts.(q)) in
        if q mod 50 = 0 then Hashtbl.replace kept q out
      in
      let check () =
        let naive q = Query.Eval.eval env (Query.Parser.parse texts.(q)) in
        let physical q = Query.Physical.execute env (Layers.plan env texts.(q)) in
        let prototypes =
          List.filter_map
            (fun k ->
              let rec first q =
                if q >= queries then None else if kind q = k then Some q else first (q + 1)
              in
              Option.map
                (fun q ->
                  ( Printf.sprintf "prototype %s (query %d) = Eval" (kind_name k) q,
                    Erm.Relation.equal (physical q) (naive q) ))
                (first 0))
            [ Probe; Ranked_scan; Join; Union ]
        in
        prototypes
        @ (Hashtbl.fold (fun q out acc -> (q, out) :: acc) kept []
          |> List.sort compare
          |> List.map (fun (q, out) ->
                 ( Printf.sprintf "query %d (%s) = Eval" q (kind_name (kind q)),
                   Erm.Relation.equal out (naive q) )))
      in
      { op; after = ignore; block = Array.length mix; check; extra = (fun () -> []) }
  in
  { name = "query-mix"; generate; setup }

(* ---- merge-fresh ---- *)

(* Evidential unions of fully overlapping 2.5k-tuple pairs with four
   focal elements per cell, each op on a fresh ctx through the sharded
   engine: every op pays cold Dempster kernels plus engine fan-out and
   merge. *)

(* The engine runs its 2 shards on one domain, here and in ingest. On a
   2-core virtual machine shared with other tenants, 2-domain ops ran in
   one of two modes about 1.45x apart (both cores free or not), whole
   runs landed in one mode or the other, and the run-to-run spread of op
   latency reached 22-37%, past any usable bound; on one domain it
   stayed within a few percent. *)
let engine = { Query.Physical.shards = 2; domains = 1 }

let merge_fresh =
  let pairs = 6 and variants = 2 and size = 2500 in
  let generate ~seed ~dir =
    let rng = Rng.create seed in
    for i = 0 to pairs - 1 do
      let a, b = Gen.source_pair rng ~focals:4 ~size ~overlap:1.0 schema in
      save dir (Printf.sprintf "ra%d" i) (rename (Printf.sprintf "ra%d" i) a);
      save dir (Printf.sprintf "rb%d" i) (rename (Printf.sprintf "rb%d" i) b)
    done;
    write_lines (path dir "queries.txt")
      (List.init (pairs * variants) (fun c ->
           let p = c mod pairs in
           Printf.sprintf "SELECT * FROM (ra%d UNION rb%d) WHERE e0 IS {%s} WITH SN > %.2f"
             p p (vset rng)
             (0.05 +. Rng.float rng 0.3)))
  in
  let setup ~seed:_ ~dir =
    let texts = read_lines (path dir "queries.txt") in
    fun () ->
      let env =
        List.concat_map
          (fun i ->
            List.map
              (fun side ->
                let name = Printf.sprintf "r%s%d" side i in
                (name, Layers.load_one (path dir (name ^ ".erd"))))
              [ "a"; "b" ])
          (List.init pairs Fun.id)
      in
      (* Op i uses pair i mod 6; the variant changes every 6 ops. *)
      let combo i = (i mod pairs) + (pairs * (i / pairs mod variants)) in
      let results = Hashtbl.create 16 in
      let op i =
        let c = combo i in
        let plan = Layers.plan env texts.(c) in
        let out =
          Layers.span "exec.execute" (fun () ->
              Exec.Engine.execute engine ~ctx:(Query.Physical.create_ctx ()) env plan)
        in
        if not (Hashtbl.mem results c) then Hashtbl.replace results c (plan, out)
      in
      (* The traced run also times the same plan inline, outside the op,
         for exec.speedup_vs_inline and the operator split. *)
      let after i =
        if tracing () then
          let plan, _ = Hashtbl.find results (combo i) in
          Layers.span "ref.inline" (fun () ->
              ignore (Layers.execute ~ctx:(Query.Physical.create_ctx ()) env plan))
      in
      let check () =
        Hashtbl.fold (fun c v acc -> (c, v) :: acc) results []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map (fun (c, (plan, out)) ->
               ( Printf.sprintf "pair %d variant %d: sharded = inline" (c mod pairs)
                   (c / pairs),
                 Erm.Relation.equal out (Query.Physical.execute env plan) ))
      in
      { op; after; block = 1; check; extra = (fun () -> []) }
  in
  { name = "merge-fresh"; generate; setup }

(* ---- ingest ---- *)

(* One `federate` run per op: load four 1k-tuple .erd files, fetch
   them through a seeded fault plan on a virtual clock with retries and
   a deadline, integrate the survivors through the sharded engine, and
   create a store in a fresh directory. No query traffic. *)

let faults =
  { Federation.Fault.none with
    fail_rate = 0.2;
    corrupt_rate = 0.1;
    drop_rate = 0.3;
    latency_ms = 5.0 }

let fed_config =
  { Federation.Degrade.default with
    policy =
      { Federation.Retry.default with retries = 3; deadline_ms = Some 500.0 };
    min_sources = 2 }

let ingest_size = 1000

let ingest =
  let names = [ "fa"; "fb"; "fc"; "fd" ] in
  let generate ~seed ~dir =
    let rng = Rng.create seed in
    let a, b = Gen.source_pair rng ~size:ingest_size ~overlap:0.6 schema in
    let c = Gen.reobserve rng a and d = Gen.reobserve rng b in
    List.iter2 (fun n r -> save dir n (rename n r)) names [ a; b; c; d ]
  in
  let setup ~seed ~dir =
    fun () ->
      let load () =
        List.map (fun n -> (n, Layers.load_one (path dir (n ^ ".erd")))) names
      in
      let integrate ?policy ?discount ?alpha_floor ?prior srcs =
        Layers.span "exec.integrate" (fun () ->
            Exec.Engine.integrate engine ?policy ?discount ?alpha_floor ?prior srcs)
      in
      let federate ~spec ~fault_seed rels =
        let clock = Federation.Clock.simulated () in
        let sources =
          List.map
            (fun (n, r) ->
              Federation.Fault.wrap ~seed:fault_seed ~clock spec
                (Federation.Source.of_relation ~name:n r))
            rels
        in
        match
          Layers.span "federation.integrate" (fun () ->
              Federation.Degrade.integrate ~config:fed_config ~seed:fault_seed
                ~integrate ~clock sources)
        with
        | Ok report -> report
        | Error f -> failwith (Format.asprintf "%a" Federation.Degrade.pp_failure f)
      in
      let fault_seed i = (seed * 7919) + i in
      let last = ref None in
      let sim_ms = ref [] in
      let op i =
        let report = federate ~spec:faults ~fault_seed:(fault_seed i) (load ()) in
        if tracing () then sim_ms := report.Federation.Degrade.elapsed_ms :: !sim_ms;
        let dir = fresh_dir dir "ingest-store" in
        let merged = rename "m" report.multi.integrated in
        ignore
          (Layers.span "store.create" (fun () ->
               Store.Estore.create ~dir ~name:"m" merged));
        last := Some (dir, merged)
      in
      (* Keep only the newest store on disk. *)
      let previous = ref None in
      let after _ =
        Option.iter (fun (d, _) -> rm_rf d) !previous;
        previous := !last
      in
      let check () =
        let rels = load () in
        let fault_free =
          federate ~spec:Federation.Fault.none ~fault_seed:(fault_seed 0) rels
        in
        let reference =
          Integration.Multi.integrate
            (List.map
               (fun (n, r) -> { Integration.Multi.source_name = n; source_relation = r })
               rels)
        in
        [ ( "op 0 without faults = Multi.integrate",
            Erm.Relation.equal fault_free.multi.integrated reference.integrated ) ]
      in
      let extra () =
        match !last with
        | None -> []
        | Some (d, r) ->
            [ ("store.space_amp", space_amp d r);
              ( "federation.sim_elapsed_ms",
                List.fold_left ( +. ) 0.0 !sim_ms /. float_of_int (max 1 (List.length !sim_ms)) ) ]
      in
      { op; after; block = 1; check; extra }
  in
  { name = "ingest"; generate; setup }

(* ---- store-churn ---- *)

(* A 20k-tuple store taking 100-key deltas (each one loaded from .erd,
   then Delta.apply with fsync on file and directory) interleaved 3:1
   with evidential scans of the current relation. An epoch is 200
   commits, one per disjoint key window, so it absorbs every key once;
   the next epoch replays the same deltas into a store created afresh
   from the base relation, untimed. Absorbing a key again makes its
   evidence and the manifest larger and every later op slower, so
   epochs keep the ops alike from the start of a run to its end. The
   run ends with a verified reopen of the last store. *)

let churn_size = 20000
let window = 100
let windows = churn_size / window

(* Ops cycle commit, commit, commit, read. *)
let commit_index i = if i mod 4 < 3 then Some ((i / 4 * 3) + (i mod 4)) else None

(* The durable-absorbs probe: how many absorbs of fresh evidence for the
   same 10 keys a 1000-tuple store survives with a verified reopen that
   still equals the in-memory relation. *)
let probe_depth = 32

let durable_absorbs ~dir =
  let base = Layers.load_one (path dir "probe-base.erd") in
  let sdir = fresh_dir dir "probe-store" in
  let store = Store.Estore.create ~dir:sdir ~name:"p" base in
  let rec go depth =
    if depth > probe_depth then probe_depth
    else
      let delta = Layers.load_one (path dir (Printf.sprintf "probe-%02d.erd" depth)) in
      match
        ignore (Store.Delta.apply store ~name:"d" delta);
        let reopened, _ = Store.Estore.open_store ~verify:true sdir in
        Erm.Relation.equal (Store.Estore.relation reopened) (Store.Estore.relation store)
      with
      | true -> go (depth + 1)
      | false | (exception _) -> depth - 1
  in
  let depth = go 1 in
  rm_rf sdir;
  depth

let store_churn =
  let reads = 8 in
  let generate ~seed ~dir =
    let rng = Rng.create seed in
    let base = rename "cur" (Gen.relation rng ~size:churn_size schema) in
    save dir "base" base;
    let tuples = Array.of_list (Erm.Relation.tuples base) in
    for w = 0 to windows - 1 do
      let keys =
        Erm.Relation.of_tuples schema (Array.to_list (Array.sub tuples (w * window) window))
      in
      save dir (Printf.sprintf "delta-%03d" w) (rename "d" (Gen.reobserve rng keys))
    done;
    write_lines (path dir "queries.txt")
      (List.init reads (fun _ ->
           Printf.sprintf "SELECT * FROM cur WHERE e0 IS {%s} AND e1 IS {%s} WITH SN > 0.25"
             (vset rng) (vset rng)));
    let probe = Gen.relation rng ~size:1000 schema in
    save dir "probe-base" probe;
    let ten = take 10 probe in
    for d = 1 to probe_depth do
      save dir (Printf.sprintf "probe-%02d" d) (Gen.reobserve rng ten)
    done
  in
  let setup ~seed:_ ~dir =
    let texts = read_lines (path dir "queries.txt") in
    fun () ->
      let base = Layers.load_one (path dir "base.erd") in
      let create () =
        let sdir = fresh_dir dir "churn-store" in
        (sdir, Layers.span "store.create" (fun () -> Store.Estore.create ~dir:sdir ~name:"cur" base))
      in
      let current = ref (create ()) in
      let ctx = Query.Physical.create_ctx () in
      let commits = ref 0 and skipped_versions = ref [] in
      let delta_bytes = ref 0 in
      let op i =
        let _, store = !current in
        match commit_index i with
        | Some j ->
            let file = path dir (Printf.sprintf "delta-%03d.erd" (j mod windows)) in
            let delta = Layers.load_one file in
            let before = Store.Estore.version store in
            let o =
              Layers.span "store.commit" (fun () -> Store.Delta.apply store ~name:"d" delta)
            in
            incr commits;
            if o.Store.Delta.version <> before + 1 then
              skipped_versions := j :: !skipped_versions;
            if tracing () then delta_bytes := !delta_bytes + file_bytes file
        | None ->
            let env = [ ("cur", Store.Estore.relation store) ] in
            ignore (Layers.execute ~ctx env (Layers.plan env texts.(i / 4 mod reads)))
      in
      (* A new epoch starts on a fresh store, from a collected heap: then
         every epoch reaches the same heap peak, and heap_peak_mb does
         not grow with the number of epochs a run gets through. *)
      let after i =
        match commit_index (i + 1) with
        | Some j when j mod windows = 0 ->
            rm_rf (fst !current);
            Gc.full_major ();
            current := create ()
        | _ -> ()
      in
      let reopened = ref None in
      let check () =
        let sdir, store = !current in
        let t, report =
          Layers.span "store.open" (fun () -> Store.Estore.open_store ~verify:true sdir)
        in
        reopened := Some report;
        [ ( "reopened store = in-memory relation",
            Erm.Relation.equal (Store.Estore.relation t) (Store.Estore.relation store) );
          ( Printf.sprintf "each of %d commits bumps the version by 1%s" !commits
              (String.concat ""
                 (List.rev_map (Printf.sprintf "; commit %d does not") !skipped_versions)),
            !skipped_versions = [] ) ]
      in
      let extra () =
        let sdir, store = !current in
        let records, segments =
          match !reopened with
          | Some r -> (float_of_int r.Store.Recovery.records, float_of_int r.segments)
          | None -> (0.0, 0.0)
        in
        [ ("store.space_amp", space_amp sdir (Store.Estore.relation store));
          ( "store.write_amp",
            if !delta_bytes = 0 then 0.0
            else Layers.counter "store.commit.bytes" /. float_of_int !delta_bytes );
          ("store.records_replayed", records);
          ("store.segments", segments);
          ("store.durable_absorbs", float_of_int (durable_absorbs ~dir)) ]
      in
      { op; after; block = 4; check; extra }
  in
  { name = "store-churn"; generate; setup }

let all = [ query_mix; merge_fresh; ingest; store_churn ]
let find name = List.find_opt (fun w -> w.name = name) all
