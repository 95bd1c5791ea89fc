(* The ERIDB performance ledger.

     ledger.exe --workload W --seed N [--seconds S] [--trace 0|1]
       one run of one workload; prints every metric by name with its
       unit, then one JSON line (end-to-end metrics untraced, per-layer
       metrics with --trace 1)
     ledger.exe --seed N [--workload W] [--runs R] [--seconds S] [--out FILE]
       R untraced runs plus one traced run of each workload (or of W),
       each in its own child process, one at a time; median and
       quartiles per metric, written to FILE as a ledger
     ledger.exe --compare OLD.json NEW.json
       one verdict per workload and end-to-end metric, with the bounds
       of BENCHMARK.json, and one on failed ops

   Run it from the repository root. --seconds defaults to BENCHMARK.json's
   run_seconds; inputs are generated into bench/ledger/_work and traces
   land in bench/ledger/_trace. *)

let home = Filename.concat "bench" "ledger"

let read_json file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.parse s

let benchmark () = read_json "BENCHMARK.json"

(* ---- One run ---- *)

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * float) list;
}

let metric_json specs metrics =
  Json.Obj
    (List.map
       (fun (s : Spec.metric) ->
         ( s.name,
           Json.Obj
             [ ("value", Json.Num (List.assoc s.name metrics));
               ("unit", Json.Str s.unit_) ] ))
       specs)

let result_json o ~trace =
  Json.Obj
    [ ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "metrics",
        metric_json (if trace then Spec.per_layer else Spec.end_to_end) o.metrics )
    ]

(* Per-layer numbers from the traced half of a run. [u] and [t] are the
   untraced and traced op latencies; [gc] the untraced ops' (minor
   words, major collections). *)
let per_layer_metrics tracer ~u ~t ~gc:(minor, major) extra =
  let setup, ops, other = Layers.phases tracer in
  let n_traced = float_of_int (max 1 ops.Layers.roots) in
  let n_untraced = float_of_int (max 1 (List.length u)) in
  let per_op x = x /. n_traced in
  let sum = List.fold_left ( +. ) 0.0 in
  let mean xs = if xs = [] then 0.0 else sum xs /. float_of_int (List.length xs) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let layer_self =
    List.map (fun l -> (l, Layers.self ops l)) Spec.span_layers
  in
  let op_totals = Hashtbl.fold (fun k v acc -> (k, v) :: acc) Layers.operators [] in
  let op_sum f = List.fold_left (fun acc (_, t) -> acc + f t) 0 op_totals in
  let reports = float_of_int (max 1 !Layers.reports) in
  let union_ns, union_misses =
    match Hashtbl.find_opt Layers.operators "union" with
    | Some t -> (t.self_ns, t.cache_misses)
    | None -> (0.0, 0)
  in
  let commits = List.sort Float.compare (Layers.spans ops "store.commit") in
  let commit_stat f = match commits with [] -> 0.0 | _ -> f (Array.of_list commits) in
  let hits = Layers.counter "combine_cache.hit"
  and misses = Layers.counter "combine_cache.miss" in
  let query_spans = Layers.spans ops "query.exec" @ Layers.spans other "query.exec" in
  let base =
    List.concat_map
      (fun (l, self_ms) -> [ (l ^ ".self_ms", per_op self_ms); (l ^ ".setup_ms", Layers.self setup l) ])
      layer_self
    @ [ ("io.mb_per_s", ratio (float_of_int !Layers.io_bytes /. 1e6) !Layers.io_seconds);
        ( "io.alloc_words_per_byte",
          ratio !Layers.io_words (float_of_int !Layers.io_bytes) );
        ("query.parse_us", 1e3 *. mean (Layers.spans ops "query.parse"));
        ("query.plan_us", 1e3 *. mean (Layers.spans ops "query.plan"));
        ("query.exec_ms", mean query_spans) ]
    @ List.map
        (fun op ->
          ( "query.op." ^ op ^ ".self_ms",
            match Hashtbl.find_opt Layers.operators op with
            | Some t -> t.self_ns /. 1e6 /. reports
            | None -> 0.0 ))
        Spec.operators
    @ [ ( "query.rows_examined_per_row",
          ratio
            (float_of_int (op_sum (fun t -> t.rows_in)))
            (float_of_int (op_sum (fun t -> t.rows_out))) );
        ( "query.index_hit_ratio",
          let h = op_sum (fun t -> t.index_hits) in
          ratio (float_of_int h) (float_of_int (h + op_sum (fun t -> t.index_misses))) );
        ("dst.combine_calls", per_op (Layers.counter "dst.combine.calls"));
        ("dst.cache_hit_ratio", ratio hits (hits +. misses));
        ("dst.ns_per_combine", ratio union_ns (float_of_int union_misses));
        ("dst.kappa_mean", Layers.hist_mean "dst.combine.conflict_kappa");
        ("exec.busy_ms", mean (Layers.spans ops "exec.execute"));
        ( "exec.speedup_vs_inline",
          ratio (Layers.total other "ref.inline") (Layers.total ops "exec.execute") );
        ("exec.merge_ms", per_op (Layers.hist_sum "exec.merge.ns" /. 1e6));
        ("exec.shard_skew", Layers.hist_max_over_mean "exec.shard.rows");
        ("exec.integrate_ms", mean (Layers.spans ops "exec.integrate"));
        ("exec.workers", Layers.gauge "exec.workers");
        ("integration.conflicts", per_op (Layers.counter "integration.conflicts"));
        ("integration.mean_kappa", Layers.hist_mean "integration.mean_kappa");
        ("federation.retry_attempts", per_op (Layers.counter "federation.retry.attempts"));
        ("federation.fetch_lost", per_op (Layers.counter "federation.fetch.lost"));
        ("store.create_ms", mean (Layers.spans ops "store.create" @ Layers.spans setup "store.create"));
        ("store.commit_p50_ms", commit_stat (Summary.percentile ~permille:500));
        ("store.commit_tail_ms", commit_stat Summary.tail);
        ("store.open_ms", mean (Layers.spans other "store.open"));
        ("gc.minor_mwords_per_op", minor /. 1e6 /. n_untraced);
        ("gc.major_collections_per_op", major /. n_untraced);
        ("obs.traced_over_untraced", ratio (mean t) (mean u));
        ( "obs.layer_coverage",
          ratio (sum (List.map snd layer_self)) ops.Layers.root_ms ) ]
  in
  (* Workload-specific numbers override; anything still missing was
     never exercised and reads 0. *)
  List.map
    (fun (s : Spec.metric) ->
      ( s.name,
        match List.assoc_opt s.name extra with
        | Some v -> v
        | None -> Option.value ~default:0.0 (List.assoc_opt s.name base) ))
    Spec.per_layer

(* [setups] and [ops] are (start in s, duration in ms) of the untraced
   set-ups and of the untraced ops that succeeded; [paces] the timings
   of the reference task, in the same form. Each time is scaled to the
   pace at which that task takes Pace.reference_ms. *)
let end_to_end_metrics ~setups ~ops ~paces ~heap_words =
  if ops = [] then failwith "no op completed";
  let at_pace = List.map (Summary.at_pace ~reference:Pace.reference_ms paces) in
  let lat = Summary.sorted_array (at_pace ops) in
  [ ("setup_s", Summary.median (at_pace setups) /. 1e3);
    ("ops_per_s", 1e3 *. float_of_int (Array.length lat) /. Array.fold_left ( +. ) 0.0 lat);
    ("op_p50_ms", Summary.percentile lat ~permille:500);
    ("op_tail_ms", Summary.tail lat);
    ("heap_peak_mb", float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6) ]

let work_dir name =
  if not (Sys.file_exists home) then
    failwith (home ^ " not found: run the ledger from the repository root");
  let d = Filename.concat home (Printf.sprintf "_work/%s-%d" name (Unix.getpid ())) in
  Workloads.rm_rf d;
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  mkdir_p d;
  d

(* The generator runs in a child process of its own, so none of its
   heap counts toward heap_peak_mb. *)
let generate (w : Workloads.t) ~seed ~dir =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix._exit
        (match w.generate ~seed ~dir with
        | () -> 0
        | exception e ->
            prerr_endline ("generator: " ^ Printexc.to_string e);
            2)
  | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | _ -> failwith (w.name ^ ": generating the inputs failed"))

(* An untraced run sets up at least [min_setups] times, and again while
   the set-ups have taken less than [setup_budget] seconds, up to
   [max_setups]; setup_s is the median. *)
let min_setups = 3
let max_setups = 9
let setup_budget = 3.0

let run_one (w : Workloads.t) ~seed ~seconds ~trace =
  let dir = work_dir w.name in
  let reference = Pace.start () in
  Fun.protect ~finally:(fun () ->
      Pace.stop reference;
      Workloads.rm_rf dir;
      (* _work itself goes too once no other run is using it. *)
      try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let t_start = Layers.now () in
  generate w ~seed ~dir;
  let t_generated = Layers.now () in
  let artifacts = Artifacts.checks () in
  let setup_fn = w.setup ~seed ~dir in
  let tracer = Obs.Trace.create () in
  let with_tracer f =
    Layers.tracer := Some tracer;
    Fun.protect ~finally:(fun () -> Layers.tracer := None) f
  in
  (* Timings of the reference task: three before each set-up, then one
     every half second between ops, and one after the last op. *)
  let paces = ref [] in
  let pace () =
    let t = Layers.now () in
    paces := (t, Pace.sample reference) :: !paces
  in
  (* Set-up is everything up to and including op 0, which also lets
     lazy state settle before timing. Only the newest session stays
     alive, so earlier set-ups leave nothing behind in the heap. *)
  let setup_once () =
    Gc.compact ();
    for _ = 1 to 3 do pace () done;
    let t0 = Layers.now () in
    let s =
      Layers.span "setup" (fun () ->
          let s = setup_fn () in
          s.Workloads.op 0;
          s)
    in
    (s, (t0, (Layers.now () -. t0) *. 1e3))
  in
  let session, setups =
    if trace then (fst (with_tracer setup_once), [])
    else
      let rec go times =
        let s, timing = setup_once () in
        let times = timing :: times in
        let n = List.length times in
        let spent = List.fold_left (fun acc (_, ms) -> acc +. (ms /. 1e3)) 0.0 times in
        if n >= max_setups || (n >= min_setups && spent >= setup_budget) then (s, times)
        else go times
      in
      go []
  in
  session.after 0;
  let t_set_up = Layers.now () in
  let untraced = ref [] and traced = ref [] in
  let attempted = ref 1 and failed = ref 0 and errors = ref [] in
  let minor = ref 0.0 and major = ref 0 in
  Obs.Metrics.reset ();
  Gc.compact ();
  let deadline = Layers.now () +. seconds in
  let i = ref 1 in
  let last_pace = ref 0.0 in
  while Layers.now () < deadline do
    if Layers.now () -. !last_pace > 0.5 then begin
      pace ();
      last_pace := Layers.now ()
    end;
    let is_traced = trace && !i / session.block mod 2 = 1 in
    let g0 = Gc.quick_stat () in
    if is_traced then begin
      Layers.tracer := Some tracer;
      Obs.Metrics.enable ()
    end;
    let t0 = Layers.now () in
    let ok =
      match
        if is_traced then Layers.span "op" (fun () -> session.op !i)
        else session.op !i
      with
      | () -> true
      | exception e ->
          errors := Printf.sprintf "op %d: %s" !i (Printexc.to_string e) :: !errors;
          false
    in
    let ms = (Layers.now () -. t0) *. 1e3 in
    Obs.Metrics.disable ();
    if not is_traced then begin
      let g1 = Gc.quick_stat () in
      minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      major := !major + (g1.Gc.major_collections - g0.Gc.major_collections)
    end;
    session.after !i;
    Layers.tracer := None;
    incr attempted;
    if ok then
      if is_traced then traced := ms :: !traced else untraced := (t0, ms) :: !untraced
    else incr failed;
    incr i
  done;
  pace ();
  (* The heap's high-water mark covers the set-ups and the ops, and
     nothing the checks below allocate. *)
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let t_looped = Layers.now () in
  let checks =
    artifacts
    @
    match if trace then with_tracer session.check else session.check () with
    | cs -> cs
    | exception e -> [ ("output checks raised " ^ Printexc.to_string e, false) ]
  in
  let metrics =
    if trace then begin
      let extra = with_tracer session.extra in
      let file = Filename.concat home (Printf.sprintf "_trace/%s-seed%d.json" w.name seed) in
      (try Unix.mkdir (Filename.dirname file) 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Obs.Export.write_chrome tracer file;
      per_layer_metrics tracer ~u:(List.map snd !untraced) ~t:!traced
        ~gc:(!minor, float_of_int !major) extra
    end
    else end_to_end_metrics ~setups ~ops:!untraced ~paces:!paces ~heap_words
  in
  Printf.printf "%s seed %d%s: %d ops attempted, %d failed\n" w.name seed
    (if trace then " (traced)" else "")
    !attempted !failed;
  Printf.printf "  wall: generate %.1f s, set-up %.1f s, ops %.1f s, checks %.1f s\n"
    (t_generated -. t_start) (t_set_up -. t_generated) (t_looped -. t_set_up)
    (Layers.now () -. t_looped);
  List.iteri
    (fun k e -> if k < 5 then Printf.printf "  error %s\n" e)
    (List.rev !errors);
  let n_ok = List.length (List.filter snd checks) in
  List.iter (fun (name, ok) -> if not ok then Printf.printf "  [FAIL] %s\n" name) checks;
  Printf.printf "  %d/%d output checks passed\n" n_ok (List.length checks);
  if not trace then begin
    let n = List.length !untraced in
    Printf.printf "  %d set-ups; %d timed ops, op_tail_ms is p%.2f\n" (List.length setups) n
      (Summary.tail_percent n);
    Printf.printf "  reference task %.2f ms (median of %d): times scaled to %.1f ms\n"
      (Summary.median (List.map snd !paces))
      (List.length !paces) Pace.reference_ms
  end;
  List.iter
    (fun (s : Spec.metric) ->
      Printf.printf "  %-32s %14.6g %s\n" s.name (List.assoc s.name metrics) s.unit_)
    (if trace then Spec.per_layer else Spec.end_to_end);
  { attempted = !attempted;
    failed = !failed;
    correct = n_ok = List.length checks;
    metrics }

(* ---- Many runs, each in a child process ---- *)

let child_run ~workload ~seed ~seconds ~trace =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rec read last =
    match input_line ic with
    | line ->
        print_endline line;
        read (Some line)
    | exception End_of_file -> last
  in
  let last = read None in
  (* A run whose ops failed or whose checks did not pass exits 1 but
     still prints its result, which the ledger records. *)
  match (Unix.close_process_in ic, last) with
  | Unix.WEXITED (0 | 1), Some line when String.starts_with ~prefix:"{" line -> Json.parse line
  | _ -> failwith (Printf.sprintf "%s run failed (seed %d)" workload seed)

let git_rev () =
  let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
  let rev = try input_line ic with End_of_file -> "unknown" in
  ignore (Unix.close_process_in ic);
  rev

let orchestrate ~workloads ~seed ~seconds ~runs ~out =
  let value r name = Json.(to_num (member "value" (member name (member "metrics" r)))) in
  let rows =
    List.map
      (fun (w : Workloads.t) ->
        let plain = List.init runs (fun _ -> child_run ~workload:w.name ~seed ~seconds ~trace:false) in
        let traced = child_run ~workload:w.name ~seed ~seconds ~trace:true in
        let count key = List.map (fun r -> Json.(member key r)) plain in
        let correct =
          List.for_all (fun r -> Json.member "correct" r = Json.Bool true) (traced :: plain)
        in
        let e2e =
          List.map
            (fun (s : Spec.metric) ->
              let vs = List.map (fun r -> value r s.name) plain in
              let q1, _, q3 =
                if runs >= 2 then Summary.quartiles vs else (List.hd vs, 0.0, List.hd vs)
              in
              ( s.name,
                Json.Obj
                  [ ("unit", Json.Str s.unit_);
                    ("median", Json.Num (Summary.median vs));
                    ("q1", Json.Num q1);
                    ("q3", Json.Num q3);
                    ("runs", Json.List (List.map (fun v -> Json.Num v) vs)) ] ))
            Spec.end_to_end
        in
        let layers =
          List.map
            (fun (s : Spec.metric) ->
              ( s.name,
                Json.Obj [ ("unit", Json.Str s.unit_); ("value", Json.Num (value traced s.name)) ] ))
            Spec.per_layer
        in
        ( w.name,
          Json.Obj
            [ ("correct", Json.Bool correct);
              ("attempted", Json.List (count "attempted"));
              ("failed", Json.List (count "failed"));
              ("end_to_end", Json.Obj e2e);
              ("per_layer", Json.Obj layers) ] ))
      workloads
  in
  let ledger =
    Json.Obj
      [ ( "header",
          Json.Obj
            [ ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
              ("ocaml", Json.Str Sys.ocaml_version);
              ("git_rev", Json.Str (git_rev ()));
              ("flush", Json.Str "fsync on file and directory (Store.Io.real)");
              ("seed", Json.Num (float_of_int seed));
              ("seconds", Json.Num seconds);
              ("runs", Json.Num (float_of_int runs)) ] );
        ("workloads", Json.Obj rows) ]
  in
  print_endline "\nworkload      metric              median         q1         q3";
  List.iter
    (fun (w, row) ->
      List.iter
        (fun (s : Spec.metric) ->
          let m = Json.(member s.name (member "end_to_end" row)) in
          let f k = Json.(to_num (member k m)) in
          Printf.printf "%-13s %-14s %12.5g %10.5g %10.5g %s\n" w s.name (f "median") (f "q1")
            (f "q3") s.unit_)
        Spec.end_to_end)
    rows;
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (Json.to_string ~indent:2 ledger);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" file)
    out;
  List.for_all
    (fun (_, row) ->
      Json.member "correct" row = Json.Bool true
      && List.for_all (fun v -> Json.to_num v = 0.0) Json.(to_list (member "failed" row)))
    rows

(* ---- Comparing two ledgers ---- *)

let compare_ledgers old_file new_file =
  let bounds =
    List.map
      (fun m -> Json.(to_str (member "name" m), to_num (member "bound" m)))
      Json.(to_list (member "end_to_end" (benchmark ())))
  in
  let workloads f = Json.(to_obj (member "workloads" (read_json f))) in
  let old_w = workloads old_file and new_w = workloads new_file in
  let runs row name = Json.(List.map to_num (to_list (member "runs" (member name (member "end_to_end" row))))) in
  let counts row =
    let total key =
      List.fold_left (fun acc v -> acc + int_of_float (Json.to_num v)) 0 Json.(to_list (member key row))
    in
    (total "failed", total "attempted")
  in
  Printf.printf "%-13s %-14s %12s %12s %8s  %s\n" "workload" "metric" "old" "new" "change" "verdict";
  let verdicts =
    List.concat_map
      (fun (w, new_row) ->
        match List.assoc_opt w old_w with
        | None -> []
        | Some old_row ->
            let timed =
              List.map
                (fun (s : Spec.metric) ->
                  let bound = List.assoc s.name bounds in
                  let old_runs = runs old_row s.name and new_runs = runs new_row s.name in
                  let v = Summary.verdict ~better:s.better ~bound ~old_runs ~new_runs in
                  let o = Summary.median old_runs and n = Summary.median new_runs in
                  Printf.printf "%-13s %-14s %12.5g %12.5g %+7.1f%%  %s\n" w s.name o n
                    (100.0 *. (n -. o) /. Float.abs o)
                    (Summary.verdict_to_string v);
                  v)
                Spec.end_to_end
            in
            let old_counts = counts old_row and new_counts = counts new_row in
            let v = Summary.failed_verdict ~old_counts ~new_counts in
            let ratio (f, a) = float_of_int f /. float_of_int (max 1 a) in
            Printf.printf "%-13s %-14s %12.5g %12.5g %8s  %s\n" w "failed_ratio" (ratio old_counts)
              (ratio new_counts) "exact" (Summary.verdict_to_string v);
            v :: timed)
      new_w
  in
  not (List.mem Summary.Regressed verdicts)

(* ---- Command line ---- *)

let usage () =
  prerr_endline
    "usage: ledger.exe --workload W --seed N [--seconds S] [--trace 0|1]\n\
    \       ledger.exe --seed N [--workload W] [--runs R] [--seconds S] [--out FILE]\n\
    \       ledger.exe --compare OLD.json NEW.json";
  exit 2

let () =
  let seed = ref 1 and workload = ref None and seconds = ref None in
  let trace = ref false and runs = ref None and out = ref None in
  let compare = ref None in
  let rec parse = function
    | [] -> ()
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seconds" :: s :: rest -> seconds := Some (float_of_string s); parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--runs" :: r :: rest -> runs := Some (int_of_string r); parse rest
    | "--out" :: f :: rest -> out := Some f; parse rest
    | "--compare" :: a :: b :: rest -> compare := Some (a, b); parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match !compare with
  | Some (a, b) -> exit (if compare_ledgers a b then 0 else 1)
  | None -> (
      let seconds =
        match !seconds with
        | Some s -> s
        | None -> Json.(to_num (member "run_seconds" (benchmark ())))
      in
      if seconds <= 0.0 then usage ();
      Exec.Engine.install ();
      let find w =
        match Workloads.find w with
        | Some w -> w
        | None ->
            prerr_endline ("unknown workload " ^ w ^ "; one of " ^ String.concat ", " Spec.workloads);
            exit 2
      in
      match (!workload, !runs, !out) with
      | Some w, None, None ->
          let o = run_one (find w) ~seed:!seed ~seconds ~trace:!trace in
          print_endline (Json.to_string (result_json o ~trace:!trace));
          exit (if o.correct && o.failed = 0 then 0 else 1)
      | _ ->
          let workloads =
            match !workload with Some w -> [ find w ] | None -> Workloads.all
          in
          let ok =
            orchestrate ~workloads ~seed:!seed ~seconds
              ~runs:(Option.value ~default:3 !runs) ~out:!out
          in
          exit (if ok then 0 else 1))
