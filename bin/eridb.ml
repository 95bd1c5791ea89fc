(* eridb — an interactive shell over extended relations.

   Usage: eridb [--trace-out FILE] [--provenance-out FILE]
                [--flight-out FILE] [--domains N] [FILE.erd ...]

   Loads the given .erd files into the environment, then reads queries
   (and dot-commands) from stdin. With --trace-out, every span recorded
   during the session is written to FILE as Chrome trace JSON on exit.
   With --provenance-out, lineage recording is enabled and the arena is
   written to FILE on exit (.dot selects Graphviz, anything else JSON).
   With --flight-out, the flight recorder journals typed events and the
   surviving ring plus a metrics snapshot is written to FILE as JSONL on
   exit — including typed error exits, so it doubles as a crash dump.
   With --domains N (or ERIDB_DOMAINS=N; the flag wins), N > 1 fans
   every query operator (and .analyze) out over N shards on N domains —
   results are bit-identical to the default path by the conformance
   harness's contract, with metrics, tracing and the flight recorder
   running at full parallelism through one telemetry buffer per task.
   ERIDB_CLOCK=virtual replaces the wall clock with a simulated one, so
   all durations are deterministic (0). *)

let usage = {|eridb — evidential extended-relation shell

Usage: eridb [--trace-out FILE] [--provenance-out FILE] [--flight-out FILE]
             [--domains N] [--rule SPEC] [FILE.erd ...]

  --domains N           fan each query operator out over N shards on
                        N domains (default: the ERIDB_DOMAINS
                        environment variable, else 1 = inline)
  --rule SPEC           session combination rule, same spec as .rule
                        (quote multi-word specs: --rule "yager 0.9")

Commands:
  .help                 show this help
  .tables               list loaded relations
  .schema NAME          print a relation's schema
  .show NAME            print a relation
  .load FILE            load relations from an .erd file
  .save NAME FILE       write a relation to an .erd file
  .let NAME = QUERY     evaluate a query and bind the result
  .check QUERY          static analysis: report diagnostics without running
  .sweep                whole-store data-quality sweep (S-checks) over the
                        bound relations and the open store's history
  .strict on|off        refuse to execute queries with error diagnostics
                        (initial state from ERIDB_STRICT=1)
  .rule [RULE [K [FB]]] show or set the session combination rule:
                        dempster | yager | dubois-prade | averaging |
                        discount[:ALPHA], optionally with a κ-threshold
                        K in [0,1] and fallback FB (a rule name, or
                        quarantine = drop and report; the default)
  .plan QUERY           show the optimized query
  .explain QUERY        show the optimized plan tree with row estimates
  .physical QUERY       show the physical plan (access paths, join algorithms)
  .analyze QUERY        run the query, show measured per-operator statistics
  .open DIR             load every .erd file in a directory
  .commit DIR           write every bound relation to DIR/NAME.erd
  .store open DIR       open a crash-safe evidence store (runs recovery,
                        binds the stored relation)
  .store create DIR NAME  persist a bound relation as a new store
  .store delta FILE     fold a one-relation .erd update into the open
                        store (O(changed entities), appends a segment)
  .store status         version, segments and records of the open store
  .summary NAME         cardinality interval + evidence histograms
  .top NAME K           the K most-supported tuples
  .assess NAME NAME     pairwise conflict profile of two relations
  .diff OLD NEW         per-key change log between two relation versions
  .csv NAME [FILE]      CSV rendering (to FILE, or stdout)
  .trace on|off         record a span tree for each query and print it
                        (bare .trace reports the current state)
  .metrics              dump the metrics registry (counters, gauges,
                        histograms); .metrics reset clears it
  .log on|off|dump      flight recorder: journal typed events (retries,
                        escalations, commits, …) in a bounded ring
                        (bare .log reports the state; .log dump prints
                        the surviving events as JSONL)
  .events [N]           pretty-print the flight recorder's surviving
                        events (the last N with an argument)
  .provenance on|off    record a lineage node for every evidential
                        derivation (bare .provenance reports the state;
                        .provenance reset clears the arena)
  .why KEY [ATTR]       explain a tuple of the last query result: the
                        derivation tree of its membership support, or of
                        attribute ATTR's combined evidence
  .quit                 exit

Anything else is evaluated as a query, e.g.:
  SELECT rname, rating FROM ra WHERE speciality IS {si} WITH SN > 0.5
  ra UNION rb
|}

let env : (string * Erm.Relation.t) list ref = ref []

(* Persistent execution context: the union memo survives across
   queries. It and the probe indexes cached inside Physical are checked
   by physical equality per lookup, so rebinding a name is safe without
   invalidation here. *)
let ctx = Query.Physical.create_ctx ()

(* One shard and one domain per --domains / ERIDB_DOMAINS (set at
   startup); the default of 1 runs every operator inline. *)
let sharded = ref { Query.Physical.shards = 1; domains = 1 }

let bind name r = env := (name, r) :: List.remove_assoc name !env

(* Strict mode gates execution on the static checker: plans with
   error-level diagnostics are refused rather than run. *)
let strict =
  ref
    (match Sys.getenv_opt "ERIDB_STRICT" with
    | Some ("1" | "true" | "on") -> true
    | Some _ | None -> false)

let guard env q = if !strict then Analysis.Check.errors env q else []

let bind_loaded relations =
  List.iter
    (fun r ->
      let name = Erm.Schema.name (Erm.Relation.schema r) in
      bind name r;
      if Obs.Provenance.on () then Erm.Lineage.register_relation ~name r;
      Printf.printf "loaded %s (%d tuples)\n" name (Erm.Relation.cardinal r))
    relations

(* Erm.Io.load opens a parse error's message with "PATH: "; the
   position goes after the path, compiler style, and the path is
   printed once. *)
let print_load_error path ~line ~col message =
  let p = path ^ ": " in
  let message =
    if String.starts_with ~prefix:p message then
      String.sub message (String.length p)
        (String.length message - String.length p)
    else message
  in
  if col > 0 then Printf.printf "error: %s:%d:%d: %s\n" path line col message
  else Printf.printf "error: %s:%d: %s\n" path line message

(* Binds the relations of every file, or of none: the first file that
   fails to load is reported, and nothing is bound. *)
let load_files paths =
  let rec go loaded = function
    | [] -> bind_loaded (List.concat (List.rev loaded))
    | path :: rest -> (
        match Erm.Io.load path with
        | relations -> go (relations :: loaded) rest
        | exception Erm.Io.Io_error { line; col; message } ->
            print_load_error path ~line ~col message
        | exception Sys_error m -> Printf.printf "error: %s\n" m)
  in
  go [] paths

(* What the shell prints for a failed query; [None] for an exception
   that is no query failure. Every command that runs a query reports
   through it. *)
let query_error = function
  | Query.Parser.Parse_error m -> Some ("parse error: " ^ m)
  | Query.Physical.Rejected findings ->
      Some
        (String.concat "\n"
           ("rejected by the static checker (.strict off to override):"
           :: List.map (fun f -> "  " ^ f) findings))
  | Query.Eval.Eval_error m
  | Erm.Ops.Incompatible_schemas m
  | Erm.Etuple.Tuple_error m ->
      Some ("error: " ^ m)
  | Dst.Mass.F.Total_conflict ->
      Some "error: total conflict (kappa = 1) while combining evidence"
  | _ -> None

let reporting_query_errors f =
  try f ()
  with e -> (
    match query_error e with Some m -> print_endline m | None -> raise e)

(* The most recent successful query result — what .why explains. *)
let last_result : Erm.Relation.t option ref = ref None

(* The store handle behind .store delta/status. *)
let current_store : Store.Estore.t option ref = ref None

let run_query text =
  let mark = Obs.Trace.count Obs.Trace.default in
  reporting_query_errors (fun () ->
      let r = Query.Physical.run ~ctx ~guard ~sharded:!sharded !env text in
      last_result := Some r;
      Erm.Render.print ~title:"result" r);
  if Obs.Trace.on () then
    match Obs.Trace.forest ~from:mark Obs.Trace.default with
    | [] -> ()
    | trees -> Format.printf "trace:@.%a@." Obs.Trace.pp_forest trees

let split_first s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

(* .why KEY [ATTR]: resolve a tuple of the last result by its printed
   key, then render the derivation tree of the requested value. The κ
   footer is the sum-check against dst.combine.conflict_kappa: over a
   fresh arena + registry, the per-step κ values of all derivation
   trees add up to the histogram's sum. *)
let why_command rest =
  let key_str, attr = split_first rest in
  if key_str = "" then print_string "usage: .why KEY [ATTR]\n"
  else if not (Obs.Provenance.on ()) then
    print_string "provenance is off (.provenance on, then re-run the query)\n"
  else
    match !last_result with
    | None -> print_string "no query result to explain yet\n"
    | Some r -> (
        let tuple =
          Erm.Relation.fold
            (fun t acc ->
              match acc with
              | Some _ -> acc
              | None ->
                  if String.equal (Erm.Lineage.key_string t) key_str then
                    Some t
                  else None)
            r None
        in
        match tuple with
        | None ->
            Printf.printf "no tuple with key (%s) in the last result\n" key_str
        | Some t -> (
            let lookup =
              if attr = "" then Ok (Obs.Provenance.find (Erm.Lineage.tm_digest t))
              else
                match Erm.Etuple.cell (Erm.Relation.schema r) t attr with
                | Erm.Etuple.Evidence e ->
                    Ok (Obs.Provenance.find (Dst.Mass.F.digest e))
                | Erm.Etuple.Definite _ ->
                    Error
                      (Printf.sprintf
                         "%s holds a definite value; no evidential lineage\n"
                         attr)
                | exception Not_found ->
                    Error (Printf.sprintf "unknown attribute %s\n" attr)
            in
            match lookup with
            | Error m -> print_string m
            | Ok None ->
                print_string
                  "no lineage recorded for that value (was provenance on \
                   when it was derived?)\n"
            | Ok (Some id) ->
                let tree = Obs.Why.tree id in
                Format.printf "%a@." Obs.Why.pp tree;
                let sum, n = Obs.Why.kappa_steps tree in
                if n > 0 then
                  Printf.printf
                    "kappa sum-check: %d Dempster step(s), total kappa = %.6g\n"
                    n sum))

(* .rule and --rule share this parser: a rule name, optionally followed
   by a κ-threshold in [0,1] and a fallback action (default quarantine).
   The policy is session-global (Dst.Rule.current), so every merge seam
   — queries at any --domains, .store delta — honors it. *)
let parse_rule_spec spec =
  let ( let* ) = Result.bind in
  match
    String.split_on_char ' ' (String.trim spec)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Error "usage: .rule [RULE [KAPPA0 [FALLBACK]]]"
  | rule :: rest ->
      let* rule = Dst.Rule.of_string rule in
      (match rest with
      | [] -> Ok (Dst.Rule.make rule)
      | k :: rest ->
          let* kappa0 =
            match float_of_string_opt k with
            | Some k when k >= 0.0 && k <= 1.0 -> Ok k
            | Some _ | None ->
                Error
                  (Printf.sprintf
                     "bad kappa threshold '%s' (expected a float in [0,1])" k)
          in
          let* fallback =
            match rest with
            | [] -> Ok Dst.Rule.Quarantine
            | [ f ] -> Dst.Rule.fallback_of_string f
            | _ -> Error "usage: .rule [RULE [KAPPA0 [FALLBACK]]]"
          in
          Ok
            (Dst.Rule.make
               ~escalation:(Dst.Rule.escalate ~kappa0 fallback)
               rule))

let handle_command line =
  let cmd, rest = split_first line in
  match cmd with
  | ".help" -> print_string usage
  | ".quit" | ".exit" -> exit 0
  | ".tables" ->
      List.iter
        (fun (name, r) ->
          Printf.printf "%s (%d tuples)\n" name (Erm.Relation.cardinal r))
        (List.sort compare !env)
  | ".schema" -> (
      match List.assoc_opt rest !env with
      | Some r -> Format.printf "%a@." Erm.Schema.pp (Erm.Relation.schema r)
      | None -> Printf.printf "unknown relation %s\n" rest)
  | ".show" -> (
      match List.assoc_opt rest !env with
      | Some r -> Erm.Render.print ~title:rest r
      | None -> Printf.printf "unknown relation %s\n" rest)
  | ".load" -> load_files [ rest ]
  | ".save" -> (
      match String.split_on_char ' ' rest with
      | [ name; file ] -> (
          match List.assoc_opt name !env with
          | Some r -> (
              match Erm.Io.save file [ r ] with
              | () -> Printf.printf "saved %s to %s\n" name file
              | exception Sys_error m -> Printf.printf "error: %s\n" m)
          | None -> Printf.printf "unknown relation %s\n" name)
      | _ -> print_string "usage: .save NAME FILE\n")
  | ".let" -> (
      match String.index_opt rest '=' with
      | Some i ->
          let name = String.trim (String.sub rest 0 i) in
          let text = String.sub rest (i + 1) (String.length rest - i - 1) in
          reporting_query_errors (fun () ->
              let r = Query.Physical.run ~ctx ~sharded:!sharded !env text in
              bind name
                (Erm.Relation.map_tuples
                   (fun t -> Some t)
                   (Erm.Schema.rename_relation name (Erm.Relation.schema r))
                   r);
              Printf.printf "%s bound (%d tuples)\n" name
                (Erm.Relation.cardinal r))
      | None -> print_string "usage: .let NAME = QUERY\n")
  | ".summary" -> (
      match List.assoc_opt rest !env with
      | None -> Printf.printf "unknown relation %s\n" rest
      | Some r ->
          let sn, sp = Erm.Summarize.cardinality_interval r in
          Printf.printf "%d stored tuples; expected cardinality in [%.3f, %.3f]\n"
            (Erm.Relation.cardinal r) sn sp;
          List.iter
            (fun attr ->
              if Erm.Attr.is_evidential attr && not (Erm.Relation.is_empty r)
              then begin
                Printf.printf "%s (pignistic, membership-weighted):\n"
                  (Erm.Attr.name attr);
                List.iter
                  (fun (v, p) ->
                    if p > 0.0005 then
                      Printf.printf "  %-12s %.3f\n" (Dst.Value.to_string v) p)
                  (Erm.Summarize.pignistic_histogram r (Erm.Attr.name attr))
              end)
            (Erm.Schema.nonkey (Erm.Relation.schema r)))
  | ".top" -> (
      match String.split_on_char ' ' rest with
      | [ name; k ] -> (
          match (List.assoc_opt name !env, int_of_string_opt k) with
          | Some r, Some k ->
              Erm.Render.print
                ~title:(Printf.sprintf "top %d of %s by sn" k name)
                (Erm.Rank.top k r)
          | None, _ -> Printf.printf "unknown relation %s\n" name
          | _, None -> Printf.printf "not a count: %s\n" k)
      | _ -> print_string "usage: .top NAME K\n")
  | ".assess" -> (
      match String.split_on_char ' ' rest with
      | [ a; b ] -> (
          match (List.assoc_opt a !env, List.assoc_opt b !env) with
          | Some ra, Some rb -> (
              match Integration.Reliability.assess ra rb with
              | assessment ->
                  Format.printf "%a@." Integration.Reliability.pp_assessment
                    assessment
              | exception Erm.Ops.Incompatible_schemas m ->
                  Printf.printf "error: %s\n" m)
          | None, _ -> Printf.printf "unknown relation %s\n" a
          | _, None -> Printf.printf "unknown relation %s\n" b)
      | _ -> print_string "usage: .assess NAME NAME\n")
  | ".diff" -> (
      match String.split_on_char ' ' rest with
      | [ a; b ] -> (
          match (List.assoc_opt a !env, List.assoc_opt b !env) with
          | Some ra, Some rb -> (
              match Erm.Delta.diff ra rb with
              | d -> Format.printf "%a@." Erm.Delta.pp d
              | exception Erm.Ops.Incompatible_schemas m ->
                  Printf.printf "error: %s\n" m)
          | None, _ -> Printf.printf "unknown relation %s\n" a
          | _, None -> Printf.printf "unknown relation %s\n" b)
      | _ -> print_string "usage: .diff OLD NEW\n")
  | ".csv" -> (
      match String.split_on_char ' ' rest with
      | [ name ] -> (
          match List.assoc_opt name !env with
          | Some r -> print_string (Erm.Render.to_csv r)
          | None -> Printf.printf "unknown relation %s\n" name)
      | [ name; file ] -> (
          match List.assoc_opt name !env with
          | Some r ->
              let oc = open_out file in
              output_string oc (Erm.Render.to_csv r);
              close_out oc;
              Printf.printf "wrote %s\n" file
          | None -> Printf.printf "unknown relation %s\n" name)
      | _ -> print_string "usage: .csv NAME [FILE]\n")
  | ".explain" -> (
      match Query.Parser.parse rest with
      | q -> (
          match Query.Explain.explain_optimized !env q with
          | node -> Printf.printf "%s\n" (Query.Explain.to_string node)
          | exception Query.Eval.Eval_error m -> Printf.printf "error: %s\n" m)
      | exception Query.Parser.Parse_error m ->
          Printf.printf "parse error: %s\n" m)
  | ".open" -> (
      match Erm.Io.erd_files rest with
      | files -> load_files files
      | exception Sys_error m -> Printf.printf "error: %s\n" m)
  | ".commit" -> (
      let relations = List.rev !env in
      match Erm.Io.save_dir rest relations with
      | () ->
          Printf.printf "committed %d relation(s) to %s\n"
            (List.length relations) rest
      | exception Erm.Io.Io_error { message; _ } ->
          Printf.printf "error: %s\n" message
      | exception Sys_error m -> Printf.printf "error: %s\n" m)
  | ".store" -> (
      let sub, arg = split_first rest in
      (* Typed store failures are printed, never crash the shell. *)
      let store_guard f =
        match f () with
        | v -> Some v
        | exception Store.Recovery.Store_error e ->
            Printf.printf "error: %s\n" (Store.Recovery.error_to_string e);
            None
        | exception (Store.Io.Fault _ as e) ->
            Printf.printf "error: %s\n"
              (Option.value ~default:"store i/o fault"
                 (Store.Io.fault_message e));
            None
        | exception Erm.Ops.Incompatible_schemas m ->
            Printf.printf "error: %s\n" m;
            None
      in
      match sub with
      | "open" when arg <> "" -> (
          match store_guard (fun () -> Store.Estore.open_store arg) with
          | None -> ()
          | Some (t, report) ->
              current_store := Some t;
              let name = Store.Estore.name t in
              let r = Store.Estore.relation t in
              bind name r;
              if Obs.Provenance.on () then
                Erm.Lineage.register_relation ~name r;
              Printf.printf
                "store %s: %s v%d (%d tuples, %d records replayed)\n" arg name
                (Store.Estore.version t) (Erm.Relation.cardinal r)
                report.Store.Recovery.records;
              List.iter
                (fun e ->
                  Printf.printf "recovery: %s\n"
                    (Store.Recovery.event_to_string e))
                report.Store.Recovery.events)
      | "create" -> (
          match String.split_on_char ' ' arg with
          | [ dir; name ] -> (
              match List.assoc_opt name !env with
              | None -> Printf.printf "unknown relation %s\n" name
              | Some r -> (
                  match
                    store_guard (fun () -> Store.Estore.create ~dir ~name r)
                  with
                  | None -> ()
                  | Some t ->
                      current_store := Some t;
                      Printf.printf "created store %s: %s v1 (%d tuples)\n" dir
                        name (Erm.Relation.cardinal r)))
          | _ -> print_string "usage: .store create DIR NAME\n")
      | "delta" when arg <> "" -> (
          match !current_store with
          | None -> print_string "no store open (.store open DIR first)\n"
          | Some t -> (
              match Erm.Io.load arg with
              | [ rel ] -> (
                  let source = Erm.Schema.name (Erm.Relation.schema rel) in
                  match
                    store_guard (fun () -> Store.Delta.apply t ~name:source rel)
                  with
                  | None -> ()
                  | Some o ->
                      List.iter
                        (fun c ->
                          Format.printf "conflict absorbing %s: %a@." source
                            Erm.Ops.pp_conflict c)
                        o.Store.Delta.conflicts;
                      bind (Store.Estore.name t) o.Store.Delta.relation;
                      Printf.printf
                        "delta %s: %d upserts, %d deletes, %d conflicts -> v%d\n"
                        source o.Store.Delta.upserts o.Store.Delta.deletes
                        (List.length o.Store.Delta.conflicts)
                        o.Store.Delta.version)
              | _ ->
                  Printf.printf "%s: delta file must hold exactly one relation\n"
                    arg
              | exception Erm.Io.Io_error { line; col; message } ->
                  print_load_error arg ~line ~col message
              | exception Sys_error m -> Printf.printf "error: %s\n" m))
      | "status" -> (
          match !current_store with
          | None -> print_string "no store open\n"
          | Some t ->
              Printf.printf "store %s: %s v%d (%d tuples)\n"
                (Store.Estore.dir t) (Store.Estore.name t)
                (Store.Estore.version t)
                (Erm.Relation.cardinal (Store.Estore.relation t)))
      | _ ->
          print_string
            "usage: .store open DIR | create DIR NAME | delta FILE | status\n")
  | ".check" -> (
      match Analysis.Check.check_string !env rest with
      | [] -> print_string "no findings\n"
      | diags -> Analysis.Report.print diags)
  | ".sweep" -> (
      (* Whole-store S-checks over every bound relation (plus the open
         store's segment history); κ telemetry is whatever .metrics /
         .provenance recording has accumulated this session. *)
      match
        Analysis.Sweep.run
          (Analysis.Sweep.subject ?store:!current_store !env)
      with
      | [] -> print_string "no findings\n"
      | diags -> Analysis.Report.print diags
      | exception Store.Recovery.Store_error e ->
          Printf.printf "error: %s\n" (Store.Recovery.error_to_string e))
  | ".strict" -> (
      match rest with
      | "on" ->
          strict := true;
          print_string "strict mode on\n"
      | "off" ->
          strict := false;
          print_string "strict mode off\n"
      | "" ->
          Printf.printf "strict mode is %s\n" (if !strict then "on" else "off")
      | _ -> print_string "usage: .strict on|off\n")
  | ".rule" -> (
      match String.trim rest with
      | "" ->
          Printf.printf "combination rule is %s\n"
            (Dst.Rule.policy_to_string (Dst.Rule.current ()))
      | spec -> (
          match parse_rule_spec spec with
          | Ok policy ->
              Dst.Rule.set_current policy;
              Printf.printf "combination rule set to %s\n"
                (Dst.Rule.policy_to_string policy)
          | Error m -> Printf.printf "error: %s\n" m))
  | ".plan" -> (
      match Query.Parser.parse rest with
      | q ->
          Printf.printf "%s\n"
            (Query.Ast.to_string (Query.Plan.optimize !env q))
      | exception Query.Parser.Parse_error m ->
          Printf.printf "parse error: %s\n" m)
  | ".physical" -> (
      match Query.Parser.parse rest with
      | q -> (
          match Query.Physical.plan_optimized !env q with
          | p -> Printf.printf "%s\n" (Query.Physical.to_string p)
          | exception Query.Eval.Eval_error m -> Printf.printf "error: %s\n" m)
      | exception Query.Parser.Parse_error m ->
          Printf.printf "parse error: %s\n" m)
  | ".trace" -> (
      match rest with
      | "on" ->
          Obs.Trace.enable Obs.Trace.default;
          print_string "tracing on\n"
      | "off" ->
          Obs.Trace.disable Obs.Trace.default;
          print_string "tracing off\n"
      | "" ->
          Printf.printf "tracing is %s (%d span(s) recorded)\n"
            (if Obs.Trace.on () then "on" else "off")
            (List.length (Obs.Trace.events Obs.Trace.default))
      | _ -> print_string "usage: .trace on|off\n")
  | ".metrics" -> (
      match rest with
      | "" ->
          if Obs.Provenance.on () then Obs.Provenance.publish ();
          print_string (Obs.Export.metrics_text ())
      | "reset" ->
          Obs.Metrics.reset ();
          print_string "metrics reset\n"
      | _ -> print_string "usage: .metrics [reset]\n")
  | ".log" -> (
      match rest with
      | "on" ->
          Obs.Log.enable ();
          print_string "flight recorder on\n"
      | "off" ->
          Obs.Log.disable ();
          print_string "flight recorder off\n"
      | "dump" -> print_string (Obs.Export.events_jsonl ())
      | "" ->
          Printf.printf "flight recorder is %s (%d event(s), capacity %d)\n"
            (if Obs.Log.on () then "on" else "off")
            (List.length (Obs.Log.events ()))
            (Obs.Log.capacity ())
      | _ -> print_string "usage: .log on|off|dump\n")
  | ".events" -> (
      let last =
        match rest with
        | "" -> Ok None
        | s -> (
            match int_of_string_opt s with
            | Some n when n >= 0 -> Ok (Some n)
            | Some _ | None -> Error ())
      in
      match last with
      | Error () -> print_string "usage: .events [N]\n"
      | Ok last -> (
          match Obs.Log.events ?last () with
          | [] -> print_string "no events recorded\n"
          | evs -> Format.printf "%a@." Obs.Log.pp_events evs))
  | ".provenance" -> (
      match rest with
      | "on" ->
          Obs.Provenance.enable ();
          (* Existing bindings become Source leaves so derivations
             recorded from here on resolve to stored tuples. *)
          List.iter
            (fun (name, r) -> Erm.Lineage.register_relation ~name r)
            !env;
          print_string "provenance on\n"
      | "off" ->
          Obs.Provenance.disable ();
          print_string "provenance off\n"
      | "reset" ->
          Obs.Provenance.reset ();
          print_string "provenance reset\n"
      | "" ->
          Printf.printf "provenance is %s (%d node(s), max depth %d)\n"
            (if Obs.Provenance.on () then "on" else "off")
            (Obs.Provenance.count ())
            (Obs.Provenance.max_depth ())
      | _ -> print_string "usage: .provenance on|off|reset\n")
  | ".why" -> why_command rest
  | ".analyze" ->
      reporting_query_errors (fun () ->
          let r, report =
            Query.Explain.analyze ~ctx ~sharded:!sharded !env
              (Query.Parser.parse rest)
          in
          Printf.printf "%s\n" (Query.Explain.report_to_string report);
          Erm.Render.print ~title:"result" r)
  | _ -> Printf.printf "unknown command %s (try .help)\n" cmd

let repl () =
  let interactive = Unix.isatty Unix.stdin in
  let rec loop () =
    if interactive then begin
      print_string "eridb> ";
      flush stdout
    end;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then ()
        else if line.[0] = '.' then handle_command line
        else run_query line;
        loop ()
  in
  loop ()

(* Peel [flag FILE] out of the argument list; everything left is an
   .erd file to load. *)
let rec split_out flag = function
  | f :: file :: rest when String.equal f flag ->
      let _, files = split_out flag rest in
      (Some file, files)
  | [ f ] when String.equal f flag ->
      Printf.eprintf "eridb: %s needs an argument\n" flag;
      exit 2
  | a :: rest ->
      let out, files = split_out flag rest in
      (out, a :: files)
  | [] -> (None, [])

(* --domains / ERIDB_DOMAINS must be a positive integer; anything else
   is a startup error (exit 2), not a silent fallback — a typo must not
   quietly change which engine answered the session's queries. *)
let parse_domains ~what s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> { Query.Physical.shards = n; domains = n }
  | Some _ | None ->
      Printf.eprintf
        "eridb: invalid %s value '%s' (expected a positive integer)\n" what s;
      exit 2

let () =
  (match Sys.getenv_opt "ERIDB_CLOCK" with
  | Some ("virtual" | "simulated") ->
      Obs.Trace.set_clock Obs.Trace.default (Obs.Clock.simulated ());
      Obs.Log.set_clock (Obs.Clock.simulated ())
  | Some _ | None -> ());
  Obs.Metrics.enable ();
  (match Sys.getenv_opt "ERIDB_DOMAINS" with
  | Some s -> sharded := parse_domains ~what:"ERIDB_DOMAINS" s
  | None -> ());
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | [ ("-h" | "--help") ] ->
      print_string usage;
      exit 0
  | _ ->
      let trace_out, files = split_out "--trace-out" args in
      let prov_out, files = split_out "--provenance-out" files in
      let flight_out, files = split_out "--flight-out" files in
      let domains_arg, files = split_out "--domains" files in
      let rule_arg, files = split_out "--rule" files in
      (* Output sinks register before any flag that can exit 2: a bad
         --domains or --rule still leaves through the shared protected
         flush, so the files the user asked for are written. *)
      (match trace_out with
      | Some file ->
          Obs.Trace.enable Obs.Trace.default;
          Obs.Export.on_exit_flush (fun () ->
              Obs.Export.write_chrome Obs.Trace.default file)
      | None -> ());
      (match prov_out with
      | Some file ->
          Obs.Provenance.enable ();
          Obs.Export.on_exit_flush (fun () -> Obs.Export.write_provenance file)
      | None -> ());
      (match flight_out with
      | Some file ->
          Obs.Metrics.enable ();
          Obs.Log.enable ();
          Obs.Export.on_exit_flush (fun () -> Obs.Export.write_flight file)
      | None -> ());
      (match domains_arg with
      | Some s -> sharded := parse_domains ~what:"--domains" s
      | None -> ());
      (match rule_arg with
      | Some spec -> (
          match parse_rule_spec spec with
          | Ok policy -> Dst.Rule.set_current policy
          | Error m ->
              Printf.eprintf "eridb: invalid --rule value: %s\n" m;
              exit 2)
      | None -> ());
      List.iter (fun f -> load_files [ f ]) files);
  repl ()
