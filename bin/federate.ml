(* federate — integrate evidential relations from the command line.

     federate data/restaurants.erd --relations ra,rb --query \
       "SELECT rname FROM integrated WHERE rating IS {ex} WITH SN > 0.5"

   Loads .erd files, folds the named (union-compatible) relations with
   Dempster's rule via the fault-tolerant federation runtime
   (Federation.Degrade over Integration.Multi), reports per-source
   outcomes, conflicts and reliabilities, and optionally queries or
   saves the result. --fault-plan/--seed inject deterministic chaos for
   reproducible degradation runs. --audit appends a per-merge lineage
   audit with per-source κ-attribution; --metrics-out flushes the
   metrics registry even on error exits (.prom selects Prometheus
   exposition, anything else JSON); --flight-out journals typed
   flight-recorder events and dumps the surviving ring plus a metrics
   snapshot as JSONL, again even on error exits — a crash dump of what
   happened last. --domains N with N > 1 runs the
   merge through the sharded execution engine (N shards/workers); the
   report is identical to the default path's by Degrade's contract.
   --rule selects the combination rule (dempster, yager, dubois-prade,
   averaging, discount[:alpha]); --kappa-threshold K --fallback ACTION
   adds a κ-escalation policy on top (combine with a fallback rule, or
   quarantine the cell and exit 3).

   Exit codes: 0 success, 1 source/load/query failure, 2 quorum not
   met, 3 quarantined merges, 124 command-line usage error (Cmdliner). *)

open Cmdliner

let exit_source_failure = 1
let exit_quorum = 2
let exit_quarantine = 3

(* Load every file, each through the typed channel. In quarantine mode
   ([--skip-malformed]) a file that fails to read or parse is reported
   and skipped instead of aborting the federation. Erm.Io.load already
   prefixes its messages with the path; strip it where we re-attach the
   path ourselves. *)
let strip_path_prefix path m =
  let p = path ^ ": " in
  let n = String.length p in
  if String.length m >= n && String.sub m 0 n = p then
    String.sub m n (String.length m - n)
  else m

let load_all ~skip_malformed files =
  let loaded, skipped =
    List.fold_left
      (fun (loaded, skipped) path ->
        match Erm.Io.load path with
        | rels ->
            let named =
              List.map
                (fun r -> (Erm.Schema.name (Erm.Relation.schema r), r))
                rels
            in
            (loaded @ named, skipped)
        | exception Sys_error m ->
            (loaded, skipped @ [ (path, strip_path_prefix path m) ])
        | exception Erm.Io.Io_error { line; message; _ } ->
            ( loaded,
              skipped
              @ [ ( path,
                    Printf.sprintf "line %d: %s" line
                      (strip_path_prefix path message) ) ] ))
      ([], []) files
  in
  match (skipped, skip_malformed) with
  | [], _ -> Ok (loaded, [])
  | (path, reason) :: _, false -> Error (path ^ ": " ^ reason)
  | _, true -> Ok (loaded, skipped)

let pick_sources env = function
  | [] -> Ok env
  | names ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
            match List.assoc_opt n env with
            | Some r -> go ((n, r) :: acc) rest
            | None -> Error (Printf.sprintf "no relation named %s" n))
      in
      go [] names

let print_skipped skipped =
  List.iter
    (fun (path, reason) ->
      Format.printf "skipped %s: %s@." path reason)
    skipped

(* --validate: lint every source file before integrating; error-level
   findings abort the run with the source-failure exit code. *)
let validate_files files =
  let diags = List.concat_map Analysis.Erd_lint.lint_file files in
  Analysis.Report.print diags;
  if List.exists Analysis.Diagnostic.is_error diags then
    Error "static validation failed (see diagnostics above)"
  else Ok ()

(* --audit: append a per-merge lineage audit. Each absorption step in
   Integration.Multi brackets the provenance nodes it produced with a
   Step node carrying a [from, to) id range; scanning each bracket
   attributes every combination's κ to the source whose absorption
   caused it, so flaky sources are rankable across runs. *)
let write_audit path =
  let module P = Obs.Provenance in
  let nodes = P.nodes () in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "# federate audit\n";
      let per_source = ref [] in
      List.iter
        (fun (s : P.node) ->
          if s.P.kind = P.Step then begin
            let arg k =
              match List.assoc_opt k s.P.args with Some v -> v | None -> ""
            in
            let name = arg "source" in
            let from_ = int_of_string (arg "from") in
            let upto = int_of_string (arg "to") in
            let combines = ref 0 and ksum = ref 0.0 and kmax = ref 0.0 in
            for i = from_ to upto - 1 do
              let n = P.node i in
              match (n.P.kind, n.P.kappa) with
              | P.Combine, Some k ->
                  incr combines;
                  ksum := !ksum +. k;
                  if k > !kmax then kmax := k
              | _ -> ()
            done;
            for i = from_ to upto - 1 do
              let n = P.node i in
              if n.P.kind = P.Merge then begin
                let kappa =
                  Array.fold_left
                    (fun acc j ->
                      match (P.node j).P.kappa with
                      | Some k -> acc +. k
                      | None -> acc)
                    0.0 n.P.inputs
                in
                let key =
                  let l = n.P.label in
                  let prefix = "merge " in
                  let np = String.length prefix in
                  if
                    String.length l > np
                    && String.equal (String.sub l 0 np) prefix
                  then String.sub l np (String.length l - np)
                  else l
                in
                Printf.fprintf oc "merge source=%s key=(%s) kappa=%.6g\n"
                  name key kappa
              end
            done;
            Printf.fprintf oc
              "step source=%s combines=%d kappa_sum=%.6g kappa_max=%.6g\n"
              name !combines !ksum !kmax;
            per_source := (name, (!ksum, !combines)) :: !per_source
          end)
        nodes;
      let ranked =
        List.sort
          (fun (a, (ka, _)) (b, (kb, _)) ->
            match compare kb ka with 0 -> compare a b | c -> c)
          !per_source
      in
      List.iteri
        (fun i (name, (ksum, combines)) ->
          Printf.fprintf oc "rank %d source=%s kappa_sum=%.6g combines=%d\n"
            (i + 1) name ksum combines)
        ranked)

(* --store/--delta: the persistent evidence store. Recovery output is
   deterministic (version, counts, events in occurrence order), so
   chaos runs golden-test cleanly. *)
let print_recovery dir (report : Store.Recovery.report) =
  Printf.printf "store %s: %s v%d, %d segments, %d records replayed\n" dir
    report.Store.Recovery.store_name report.version report.segments
    report.records;
  List.iter
    (fun e -> Printf.printf "recovery: %s\n" (Store.Recovery.event_to_string e))
    report.Store.Recovery.events

let run files relations discount name query csv out report_only fault_plan
    seed retries timeout_ms budget_ms min_sources skip_malformed validate
    metrics_out audit domains store_dir delta_file store_fault_plan rule
    kappa_threshold fallback flight_out =
  (match metrics_out with
  | Some _ ->
      Obs.Metrics.enable ();
      Obs.Metrics.reset ()
  | None -> ());
  (match audit with
  | Some _ ->
      Obs.Provenance.enable ();
      Obs.Provenance.reset ()
  | None -> ());
  (match flight_out with
  | Some _ ->
      (* The journal rides the simulated clock like the federation
         runtime itself, so a crash dump is deterministic for a given
         seed and fault plan. *)
      Obs.Metrics.enable ();
      Obs.Log.set_clock (Obs.Clock.simulated ());
      Obs.Log.enable ();
      Obs.Log.clear ()
  | None -> ());
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  let fail code m = Error (code, m) in
  (* The combination rule is session-global: every merge seam (inline,
     sharded, store delta) reads Dst.Rule.current, so setting it once
     here covers them all. *)
  let policy_setup () =
    match (kappa_threshold, fallback) with
    | None, Some _ ->
        fail Cmd.Exit.cli_error "--fallback requires --kappa-threshold"
    | None, None -> Ok (Dst.Rule.set_current (Dst.Rule.make rule))
    | Some k, _ when not (k >= 0.0 && k <= 1.0) ->
        fail Cmd.Exit.cli_error "--kappa-threshold must be in [0,1]"
    | Some k, fb ->
        let fb = Option.value fb ~default:Dst.Rule.Quarantine in
        Ok
          (Dst.Rule.set_current
             (Dst.Rule.make ~escalation:(Dst.Rule.escalate ~kappa0:k fb) rule))
  in
  let store_io =
    match store_fault_plan with
    | None -> Store.Io.real
    | Some plan -> Store.Io.faulty ~seed ~plan Store.Io.real
  in
  (* Store failures are always typed: Store_error from the recovery
     state machine, Io.Fault from real or injected disk faults. Both
     map to the source-failure exit. *)
  let store_guard f =
    match f () with
    | v -> Ok v
    | exception Store.Recovery.Store_error e ->
        fail exit_source_failure (Store.Recovery.error_to_string e)
    | exception (Store.Io.Fault _ as e) ->
        fail exit_source_failure
          (Option.value ~default:"store i/o fault"
             (Store.Io.fault_message e))
  in
  let render r =
    if csv then print_string (Erm.Render.to_csv r) else Erm.Render.print r
  in
  let query_and_out env r =
    try
      (match query with
      | Some text -> render (Query.Eval.run env text)
      | None -> render r);
      (match out with
      | Some path ->
          Erm.Io.save path [ r ];
          Printf.printf "wrote %s\n" path
      | None -> ());
      Ok ()
    with
    | Sys_error m -> fail exit_source_failure m
    | Query.Parser.Parse_error m ->
        fail exit_source_failure ("parse error: " ^ m)
    | Query.Eval.Eval_error m -> fail exit_source_failure m
    | Erm.Ops.Incompatible_schemas m -> fail exit_source_failure m
    | Dst.Mass.F.Total_conflict ->
        fail exit_source_failure
          "total conflict (kappa = 1) during query evaluation"
  in
  (* Open the store (through recovery), optionally fold one delta file
     into it, then expose the stored relation to --query/--out. *)
  let store_body dir =
    let* t, report =
      store_guard (fun () -> Store.Estore.open_store ~io:store_io dir)
    in
    print_recovery dir report;
    let* () =
      match delta_file with
      | None -> Ok ()
      | Some dfile ->
          let* rel =
            match Erm.Io.load dfile with
            | [ r ] -> Ok r
            | _ ->
                fail exit_source_failure
                  (dfile ^ ": delta file must hold exactly one relation")
            | exception Sys_error m -> fail exit_source_failure m
            | exception Erm.Io.Io_error { line; message; _ } ->
                fail exit_source_failure
                  (Printf.sprintf "%s: line %d: %s" dfile line
                     (strip_path_prefix dfile message))
          in
          let source = Erm.Schema.name (Erm.Relation.schema rel) in
          let* outcome =
            match
              store_guard (fun () -> Store.Delta.apply t ~name:source rel)
            with
            | Ok o -> Ok o
            | Error _ as e -> e
            | exception Erm.Ops.Incompatible_schemas m ->
                fail exit_source_failure m
          in
          List.iter
            (fun c ->
              Format.printf "conflict absorbing %s: %a@." source
                Erm.Ops.pp_conflict c)
            outcome.Store.Delta.conflicts;
          Printf.printf "delta %s: %d upserts, %d deletes, %d conflicts -> v%d\n"
            source outcome.Store.Delta.upserts outcome.Store.Delta.deletes
            (List.length outcome.Store.Delta.conflicts)
            outcome.Store.Delta.version;
          Ok ()
    in
    if report_only then Ok ()
    else
      let stored = Store.Estore.relation t in
      query_and_out [ (Store.Estore.name t, stored) ] stored
  in
  let body () =
    let* () = policy_setup () in
    let* () =
      match (store_dir, delta_file) with
      | None, Some _ ->
          fail Cmd.Exit.cli_error "--delta requires --store DIR"
      | _ -> Ok ()
    in
    let* () =
      if files = [] && store_dir = None then
        fail Cmd.Exit.cli_error "pass at least one FILE.erd or --store DIR"
      else Ok ()
    in
    match store_dir with
    | Some dir when files = [] || delta_file <> None ->
        (* Pure store runs: open (recovery), optionally fold a delta,
           then query/print the stored relation. *)
        store_body dir
    | _ ->
    let* () =
      if validate then
        Result.map_error (fun m -> (exit_source_failure, m)) (validate_files files)
      else Ok ()
    in
    let* env, skipped =
      Result.map_error
        (fun m -> (exit_source_failure, m))
        (load_all ~skip_malformed files)
    in
    print_skipped skipped;
    let* () =
      if env = [] then
        fail exit_source_failure "no relations loaded; pass at least one .erd"
      else Ok ()
    in
    let* picked =
      Result.map_error
        (fun m -> (exit_source_failure, m))
        (pick_sources env relations)
    in
    let clock = Federation.Clock.simulated () in
    let sources =
      List.map
        (fun (n, r) ->
          let s = Federation.Source.of_relation ~name:n r in
          match fault_plan with
          | None -> s
          | Some plan ->
              Federation.Fault.wrap ~seed ~clock
                (Federation.Fault.spec_for plan n)
                s)
        picked
    in
    let config =
      { Federation.Degrade.default with
        policy =
          { Federation.Retry.default with
            retries;
            deadline_ms = timeout_ms };
        min_sources;
        budget_ms;
        conflict_discount = discount }
    in
    (* The merge itself is swappable: with --domains N > 1 the sharded
       engine's drop-in replaces Integration.Multi.integrate (identical
       report, partitioned absorption folds). *)
    let merge =
      if domains > 1 then
        Exec.Engine.integrate { Query.Physical.shards = domains; domains }
      else Integration.Multi.integrate
    in
    (* Combination exceptions escaping the runtime used to abort as an
       uncaught exception, bypassing the metrics flush; turn them into
       the typed source-failure exit instead. *)
    let* outcome =
      match
        Federation.Degrade.integrate ~config ~seed ~integrate:merge ~clock
          sources
      with
      | outcome -> Ok outcome
      | exception Dst.Mass.F.Total_conflict ->
          fail exit_source_failure
            "total conflict (kappa = 1) while combining evidence"
      | exception Erm.Etuple.Tuple_error m ->
          fail exit_source_failure ("tuple error: " ^ m)
    in
    match outcome with
    | Error (Federation.Degrade.Quorum_not_met { outcomes; _ } as f) ->
        Format.printf "%a@." Federation.Degrade.pp_outcomes outcomes;
        fail exit_quorum
          (Format.asprintf "%a" Federation.Degrade.pp_failure f)
    | Error (Federation.Degrade.No_sources as f) ->
        fail exit_source_failure
          (Format.asprintf "%a" Federation.Degrade.pp_failure f)
    | Ok report ->
        Format.printf "%a@." Federation.Degrade.pp_outcomes
          report.Federation.Degrade.outcomes;
        Format.printf "%a@." Integration.Multi.pp
          report.Federation.Degrade.multi;
        (match audit with
        | Some path ->
            write_audit path;
            Printf.printf "wrote audit to %s\n" path
        | None -> ());
        let merged = report.Federation.Degrade.multi.integrated in
        let integrated =
          Erm.Relation.map_tuples
            (fun t -> Some t)
            (Erm.Schema.rename_relation name (Erm.Relation.schema merged))
            merged
        in
        (* Persist even under --report-only: creating the store is the
           point of the run, not part of rendering. *)
        let* () =
          match store_dir with
          | None -> Ok ()
          | Some dir ->
              let* t =
                store_guard (fun () ->
                    Store.Estore.create ~io:store_io ~dir ~name integrated)
              in
              Printf.printf "created store %s: %s v%d (%d tuples)\n" dir
                (Store.Estore.name t) (Store.Estore.version t)
                (Erm.Relation.cardinal (Store.Estore.relation t));
              Ok ()
        in
        let* () =
          if report_only then Ok ()
          else query_and_out ((name, integrated) :: env) integrated
        in
        (* Quarantined cells are a typed outcome, not a silent drop: the
           merge completed (and was rendered/persisted above), but the
           integrator is told through the exit code that κ-escalation
           withheld at least one combination. *)
        let quarantined =
          List.filter
            (fun (_, c) -> Erm.Ops.is_quarantine c)
            report.Federation.Degrade.multi.conflicts
        in
        if quarantined = [] then Ok ()
        else
          fail exit_quarantine
            (Printf.sprintf
               "%d merge(s) quarantined by kappa-escalation (rule %s)"
               (List.length quarantined)
               (Dst.Rule.policy_to_string (Dst.Rule.current ())))
  in
  (* Output flushes live in the shared protected-flush registry so runs
     that exit through a typed error path (1/2/3/124) still write their
     metrics and flight journal. The metrics file extension picks the
     format: .prom for Prometheus text exposition, anything else JSON. *)
  (match metrics_out with
  | Some path ->
      Obs.Export.on_exit_flush (fun () ->
          if Obs.Provenance.on () then Obs.Provenance.publish ();
          Obs.Export.write_metrics path;
          Printf.printf "wrote metrics to %s\n" path)
  | None -> ());
  (match flight_out with
  | Some path ->
      Obs.Export.on_exit_flush (fun () ->
          Obs.Export.write_flight path;
          Printf.printf "wrote flight journal to %s\n" path)
  | None -> ());
  Obs.Export.flush_protect body

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE.erd")

let relations_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "relations"; "r" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated relation names to integrate (default: every \
           relation found, in load order). They must be union-compatible.")

let discount_arg =
  Arg.(
    value & flag
    & info [ "discount" ]
        ~doc:
          "Estimate each source's reliability from pairwise conflict and \
           $(b,α)-discount its evidence before merging. Avoids losing \
           tuples to total conflict at the cost of extra ignorance.")

let name_arg =
  Arg.(
    value & opt string "integrated"
    & info [ "name" ] ~docv:"NAME"
        ~doc:"Name for the integrated relation (also its query alias).")

let query_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "query"; "q" ] ~docv:"QUERY"
        ~doc:
          "Evaluate a query instead of printing the integrated relation. \
           All loaded relations plus $(b,NAME) are in scope.")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Render results as CSV.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Also write the integrated relation to $(docv) (.erd format).")

let report_arg =
  Arg.(
    value & flag
    & info [ "report-only" ]
        ~doc:
          "Print only the integration report (outcomes, conflicts, \
           reliabilities).")

let fault_plan_conv =
  let parse s =
    match Federation.Fault.plan_of_string s with
    | Ok plan -> Ok plan
    | Error m -> Error (`Msg ("bad fault plan: " ^ m))
  in
  let print ppf _ = Format.pp_print_string ppf "<fault-plan>" in
  Arg.conv (parse, print)

let fault_plan_arg =
  Arg.(
    value
    & opt (some fault_plan_conv) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Inject deterministic faults for chaos runs: \
           $(i,name:key=value,…;…) where name is a relation name or \
           $(b,*) and keys are fail, timeout, corrupt, drop \
           (probabilities), latency, hang (milliseconds). Example: \
           $(b,ra:fail=0.5,latency=20;*:timeout=0.1). Reproducible given \
           $(b,--seed).")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:"Seed for fault injection and retry jitter.")

let retries_arg =
  Arg.(
    value & opt int Federation.Retry.default.Federation.Retry.retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra fetch attempts per source after the first (exponential \
           backoff with jitter between attempts).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-source fetch deadline. Deliveries past it are treated as \
           stale and discounted.")

let budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-ms" ] ~docv:"MS"
        ~doc:"Total integration budget across all source fetches.")

let min_sources_arg =
  Arg.(
    value & opt int 0
    & info [ "min-sources" ] ~docv:"N"
        ~doc:
          "Quorum: integrate only if at least $(docv) sources deliver \
           (default 0 = all selected sources must deliver).")

let skip_malformed_arg =
  Arg.(
    value & flag
    & info [ "skip-malformed" ]
        ~doc:
          "Quarantine files that fail to read or parse: report and skip \
           them instead of aborting the federation.")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:
          "Run the static $(b,.erd) linter over every source file before \
           integrating; error-level findings abort the run.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics registry (combination counts, conflict \
           mass, retry attempts, …) to $(docv) — Prometheus text \
           exposition if $(docv) ends in .prom, JSON otherwise. Written \
           even when the run exits with an error. The federation clock is \
           simulated, so the dump is deterministic for a given seed and \
           fault plan.")

let audit_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit" ] ~docv:"FILE"
        ~doc:
          "Enable provenance recording and append a per-merge audit log \
           to $(docv): one line per merged key with its conflict mass, a \
           per-source summary of every Dempster combination its \
           absorption caused, and a ranking by total κ so flaky sources \
           stand out across runs.")

let domains_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s' (expected a positive integer)"
                s))
  in
  Arg.conv (parse, Format.pp_print_int)

let domains_arg =
  Arg.(
    value & opt domains_conv 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Run the merge through the sharded execution engine with $(docv) \
           shards and up to $(docv) parallel workers (default 1 = the \
           classic sequential merge). The integration report is identical \
           either way.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Crash-safe evidence store directory. With FILE.erd sources, \
           persist the integrated relation there (the directory must not \
           already hold a store). Without sources, open the store through \
           recovery and expose its relation to $(b,--query)/$(b,--out).")

let delta_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "delta" ] ~docv:"FILE.erd"
        ~doc:
          "Fold one source update (a single relation) into the store \
           opened with $(b,--store), touching only the changed entities: \
           Dempster's rule is associative, so absorbing the delta into the \
           stored relation equals a full rebuild, bit for bit. Appends a \
           new segment and bumps the store version.")

let store_fault_plan_conv =
  let parse s =
    match Store.Io.plan_of_string s with
    | Ok plan -> Ok plan
    | Error m -> Error (`Msg ("bad store fault plan: " ^ m))
  in
  let print ppf _ = Format.pp_print_string ppf "<store-fault-plan>" in
  Arg.conv (parse, print)

let store_fault_plan_arg =
  Arg.(
    value
    & opt (some store_fault_plan_conv) None
    & info [ "store-fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Inject deterministic disk faults into store i/o: \
           $(i,class:key=value,…;…) where class is $(b,segment), \
           $(b,manifest) or $(b,*) and keys are eio, enospc, short, flip, \
           fsync_eio, rename (probabilities) or torn_at (byte offset). \
           Example: $(b,segment:torn_at=40) tears the next segment write \
           at byte 40. Reproducible given $(b,--seed).")

let rule_conv =
  let parse s =
    match Dst.Rule.of_string s with
    | Ok r -> Ok r
    | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, Dst.Rule.pp)

let rule_arg =
  Arg.(
    value
    & opt rule_conv Dst.Rule.Dempster
    & info [ "rule" ] ~docv:"RULE"
        ~doc:
          "Combination rule applied to matched evidence cells: \
           $(b,dempster) (default), $(b,yager) (conflict mass moves to \
           Ω instead of normalizing), $(b,dubois-prade) (conflict mass \
           moves to the union of the disagreeing focal sets), \
           $(b,averaging) (pointwise mean; idempotent but not \
           associative, so the source fold order matters), or \
           $(b,discount)[$(b,:ALPHA)] (α-discount both operands, then \
           Dempster; default α picked so total conflict is impossible).")

let fallback_conv =
  let parse s =
    match Dst.Rule.fallback_of_string s with
    | Ok f -> Ok f
    | Error m -> Error (`Msg m)
  in
  let print ppf f = Format.pp_print_string ppf (Dst.Rule.fallback_to_string f) in
  Arg.conv (parse, print)

let kappa_threshold_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "kappa-threshold" ] ~docv:"K"
        ~doc:
          "κ-escalation: whenever two evidence cells' raw conflict κ \
           reaches $(docv) (in [0,1]), the primary $(b,--rule) is not \
           trusted with the combination and the $(b,--fallback) action \
           runs instead. 1 degenerates to the pure primary rule \
           (escalating only where Dempster is undefined); 0 escalates \
           every combination.")

let flight_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-out" ] ~docv:"FILE"
        ~doc:
          "Enable the flight recorder and write its event journal (one \
           JSON object per line: retries, degraded sources, \
           κ-escalations, store commits, …) plus a final metrics \
           snapshot to $(docv). Written even when the run exits with an \
           error, so it doubles as a crash dump of the last events before \
           the failure. The journal rides the simulated federation \
           clock, so it is deterministic for a given seed and fault \
           plan.")

let fallback_arg =
  Arg.(
    value
    & opt (some fallback_conv) None
    & info [ "fallback" ] ~docv:"ACTION"
        ~doc:
          "What κ-escalation does (requires $(b,--kappa-threshold)): a \
           rule name to combine with instead, or $(b,quarantine) \
           (default) to withhold the merge, report the pair as a \
           conflict, and exit with code 3.")

let term =
  Term.(
    const run $ files_arg $ relations_arg $ discount_arg $ name_arg
    $ query_arg $ csv_arg $ out_arg $ report_arg $ fault_plan_arg $ seed_arg
    $ retries_arg $ timeout_arg $ budget_arg $ min_sources_arg
    $ skip_malformed_arg $ validate_arg $ metrics_out_arg $ audit_arg
    $ domains_arg $ store_arg $ delta_arg $ store_fault_plan_arg $ rule_arg
    $ kappa_threshold_arg $ fallback_arg $ flight_out_arg)

let cmd =
  let doc = "integrate evidential (.erd) relations with Dempster's rule" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Implements the database-integration operator of Lim, Srivastava \
         and Shekhar (ICDE 1994): key-matched tuples from every source are \
         merged attribute-by-attribute with Dempster's rule of \
         combination; tuple membership pairs combine on the boolean \
         frame; total conflicts are reported to the integrator rather \
         than resolved silently. Sources are fetched through a \
         fault-tolerant runtime: transient failures are retried with \
         exponential backoff, flaky or stale sources are α-discounted \
         (Shafer) rather than dropped or trusted, and the run fails with \
         a per-source outcome report if the quorum is not met.";
      `S Manpage.s_examples;
      `P "Integrate the sample data and query it:";
      `Pre
        "  federate data/restaurants.erd -r ra,rb \\\\\n\
        \    -q \"SELECT rname FROM integrated WHERE rating IS {ex} WITH SN \
         > 0.5\"";
      `P "A reproducible chaos run:";
      `Pre
        "  federate data/restaurants.erd -r ra,rb --seed 7 \\\\\n\
        \    --fault-plan \"ra:fail=0.6,latency=20;rb:corrupt=0.3\" \\\\\n\
        \    --retries 3 --min-sources 1 --report-only" ]
  in
  let exits =
    Cmd.Exit.info exit_source_failure
      ~doc:"a source failed to load, parse or integrate, or the query failed."
    :: Cmd.Exit.info exit_quorum
         ~doc:"quorum not met: too few sources delivered."
    :: Cmd.Exit.info exit_quarantine
         ~doc:
           "κ-escalation quarantined at least one merge (see \
            $(b,--kappa-threshold)); the reported result omits the \
            quarantined pairs."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "federate" ~version:"1.0" ~doc ~man ~exits)
    (Term.map
       (function
         | Ok () -> 0
         | Error (code, m) ->
             Printf.eprintf "federate: %s\n" m;
             code)
       term)

let () = exit (Cmd.eval' cmd)
