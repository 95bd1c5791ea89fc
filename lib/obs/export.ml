let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* %.3f keeps microsecond timestamps stable across platforms (%g would
   switch to scientific notation on long traces). *)
let num f = Printf.sprintf "%.3f" f

let chrome_event (e : Trace.event) =
  let args =
    match e.Trace.args with
    | [] -> ""
    | kvs ->
        let fields =
          List.map
            (fun (k, v) -> json_escape k ^ ":" ^ json_escape v)
            (List.sort compare kvs)
        in
        Printf.sprintf ",\"args\":{%s}" (String.concat "," fields)
  in
  Printf.sprintf
    "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":1%s}"
    (json_escape e.Trace.name) (json_escape e.Trace.cat)
    (num (e.Trace.ts_ms *. 1e3))
    (num (e.Trace.dur_ms *. 1e3))
    args

let chrome ?(from = 0) t =
  let evs =
    List.filter (fun e -> e.Trace.id >= from) (Trace.events t)
  in
  "[\n" ^ String.concat ",\n" (List.map chrome_event evs) ^ "\n]\n"

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let write_chrome ?from t path = write_file path (chrome ?from t)

let metrics_text () =
  match Metrics.snapshot () with
  | [] -> "(no metrics recorded)\n"
  | stats ->
      String.concat ""
        (List.map
           (fun (name, stat) ->
             match stat with
             | Metrics.Counter n ->
                 Printf.sprintf "counter   %-36s %d\n" name n
             | Metrics.Gauge v ->
                 Printf.sprintf "gauge     %-36s %g\n" name v
             | Metrics.Histogram { count; sum; min; max; last; p50; p95; p99; _ }
               ->
                 Printf.sprintf
                   "histogram %-36s count=%d sum=%g min=%g max=%g last=%g \
                    p50=%g p95=%g p99=%g\n"
                   name count sum min max last p50 p95 p99)
           stats)

(* A metric's value as JSON: the one rendering behind the metrics file
   and the flight dump's metrics line. *)
let metric_json = function
  | Metrics.Counter n -> string_of_int n
  | Metrics.Gauge v -> Printf.sprintf "{\"gauge\":%g}" v
  | Metrics.Histogram { count; sum; min; max; last; p50; p95; p99; _ } ->
      Printf.sprintf
        "{\"count\":%d,\"sum\":%g,\"min\":%g,\"max\":%g,\"last\":%g,\"quantiles\":{\"p50\":%g,\"p95\":%g,\"p99\":%g}}"
        count sum min max last p50 p95 p99

let metrics_json () =
  let field (name, stat) =
    Printf.sprintf "  %s: %s" (json_escape name) (metric_json stat)
  in
  match Metrics.snapshot () with
  | [] -> "{}\n"
  | stats ->
      "{\n" ^ String.concat ",\n" (List.map field stats) ^ "\n}\n"

(* ---- Prometheus text exposition ---------------------------------- *)

let prom_name name =
  let mangled =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name
  in
  "eridb_" ^ mangled

let prom_le bound =
  if bound = Float.infinity then "+Inf" else Printf.sprintf "%g" bound

(* The name→help table behind [# HELP]. Exact entries first; families
   recorded under computed names (per-source rollups, per-operator
   stats) match by longest prefix. One central table so the exposition
   and the documentation in [metrics.mli] stay in step. *)
let help_exact =
  [ ("dst.combine.calls", "Evidence combinations performed.");
    ( "dst.combine.conflict_kappa",
      "Conflict mass kappa observed per combination." );
    ( "dst.combine.total_conflict",
      "Combinations rejected for total conflict (kappa = 1)." );
    ( "dst.combine.escalations",
      "Combinations whose kappa crossed the escalation threshold." );
    ("union_memo.hit", "Union results served from the context's memo.");
    ("union_memo.miss", "Union results derived and memoized.");
    ("physical.index_probe.rows", "Rows returned by key-index probes.");
    ("federation.retry.attempts", "Source fetch attempts (including retries).");
    ("federation.retry.backoff_ms", "Backoff delay per retried fetch.");
    ("federation.fetch.delivered", "Sources that delivered a relation.");
    ("federation.fetch.lost", "Sources that failed after retries.");
    ("io.load.files", "Relation files parsed by Erm.Io.");
    ("exec.shards", "Shard count of the latest sharded stage.");
    ("exec.workers", "Worker domains used by the latest sharded stage.");
    ("exec.merge.ns", "Nanoseconds spent merging shard outputs.");
    ("exec.shard.rows", "Rows produced per shard.");
    ("exec.index.build", "Generation-keyed scan indexes built.");
    ("exec.index.reuse", "Generation-keyed scan indexes reused.");
    ("integration.sources", "Source relations consumed by integration.");
    ("integration.conflicts", "Attribute conflicts found during integration.");
    ("integration.mean_kappa", "Mean conflict mass per integrated conflict.");
    ("provenance.nodes", "Live nodes in the provenance arena.");
    ("provenance.max_depth", "Deepest derivation in the provenance arena.");
    ("analysis.sweep.runs", "Data-quality sweeps executed.") ]

let help_prefix =
  [ ( "dst.combine.kappa_by_source.",
      "Conflict mass attributed to one source." );
    ("dst.combine.rule.", "Combinations performed under this rule.");
    ("physical.", "Physical operator rollup (calls, rows, pruning, wall).");
    ("store.commit.", "Evidence-store commit activity.");
    ("store.delta.", "Evidence-store delta-chain activity.");
    ("store.recovery.", "Evidence-store recovery activity.");
    ("analysis.", "Data-quality sweep rollup.");
    ("federation.", "Federation runtime activity.");
    ("exec.", "Sharded executor activity.") ]

let help_for name =
  match List.assoc_opt name help_exact with
  | Some h -> h
  | None ->
      let starts p =
        String.length name >= String.length p
        && String.sub name 0 (String.length p) = p
      in
      let best =
        List.fold_left
          (fun acc (p, h) ->
            if starts p then
              match acc with
              | Some (p', _) when String.length p' >= String.length p -> acc
              | _ -> Some (p, h)
            else acc)
          None help_prefix
      in
      (match best with Some (_, h) -> h | None -> "eridb metric.")

let metrics_prom () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, stat) ->
      let p = prom_name name in
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" p (help_for name));
      match stat with
      | Metrics.Counter n ->
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s counter\n%s %d\n" p p n)
      | Metrics.Gauge v ->
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s gauge\n%s %g\n" p p v)
      | Metrics.Histogram { count; sum; buckets; _ } ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" p);
          (* The grid is wide; emit only bounds where the cumulative
             count steps (plus +Inf, which exposition requires). The
             series stays monotone, so scrapers reconstruct the same
             distribution. *)
          let prev = ref (-1) in
          List.iter
            (fun (bound, cum) ->
              if cum <> !prev || bound = Float.infinity then begin
                prev := cum;
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" p
                     (prom_le bound) cum)
              end)
            buckets;
          Buffer.add_string buf (Printf.sprintf "%s_sum %g\n" p sum);
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" p count))
    (Metrics.snapshot ());
  Buffer.contents buf

let write_metrics path =
  write_file path
    (if Filename.check_suffix path ".prom" then metrics_prom ()
     else metrics_json ())

(* ---- Provenance exports ------------------------------------------ *)

let provenance_json ?store () =
  let buf = Buffer.create 1024 in
  let nodes = Provenance.nodes ?store () in
  Buffer.add_string buf "{\n\"nodes\": [\n";
  let opt_field name = function
    | Some v -> Printf.sprintf ",\"%s\":%g" name v
    | None -> ""
  in
  List.iteri
    (fun i (n : Provenance.node) ->
      if i > 0 then Buffer.add_string buf ",\n";
      let args =
        match n.args with
        | [] -> ""
        | kvs ->
            Printf.sprintf ",\"args\":{%s}"
              (String.concat ","
                 (List.map
                    (fun (k, v) -> json_escape k ^ ":" ^ json_escape v)
                    kvs))
      in
      Buffer.add_string buf
        (Printf.sprintf "{\"id\":%d,\"kind\":%s,\"label\":%s%s%s%s%s,\"inputs\":[%s]}"
           n.id
           (json_escape (Provenance.kind_name n.kind))
           (json_escape n.label) (opt_field "kappa" n.kappa)
           (opt_field "norm" n.norm) (opt_field "alpha" n.alpha) args
           (String.concat ","
              (Array.to_list (Array.map string_of_int n.inputs)))))
    nodes;
  Buffer.add_string buf "\n],\n\"edges\": [\n";
  let first = ref true in
  List.iter
    (fun (n : Provenance.node) ->
      Array.iter
        (fun i ->
          if !first then first := false else Buffer.add_string buf ",\n";
          Buffer.add_string buf (Printf.sprintf "[%d,%d]" i n.id))
        n.inputs)
    nodes;
  Buffer.add_string buf "\n]\n}\n";
  Buffer.contents buf

let dot_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let dot_shape = function
  | Provenance.Source -> "box"
  | Provenance.Operand -> "plaintext"
  | Provenance.Combine -> "ellipse"
  | Provenance.Discount -> "trapezium"
  | Provenance.Support -> "diamond"
  | Provenance.Merge -> "hexagon"
  | Provenance.Step -> "note"

let provenance_dot ?store () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph provenance {\n  rankdir=BT;\n";
  let nodes = Provenance.nodes ?store () in
  List.iter
    (fun (n : Provenance.node) ->
      let deco =
        (match n.kappa with
        | Some k -> Printf.sprintf "\\nkappa=%.6g" k
        | None -> "")
        ^
        match n.alpha with
        | Some a -> Printf.sprintf "\\nalpha=%.6g" a
        | None -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=%s label=\"%s %s%s\"];\n" n.id
           (dot_shape n.kind)
           (Provenance.kind_name n.kind)
           (dot_escape n.label) deco))
    nodes;
  List.iter
    (fun (n : Provenance.node) ->
      Array.iter
        (fun i ->
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" i n.id))
        n.inputs)
    nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_provenance ?store path =
  if Filename.check_suffix path ".dot" then
    write_file path (provenance_dot ?store ())
  else write_file path (provenance_json ?store ())

(* ---- Flight-recorder exports ------------------------------------- *)

let event_jsonl (e : Log.event) =
  let fields =
    match e.Log.fields with
    | [] -> ""
    | kvs ->
        Printf.sprintf ",\"fields\":{%s}"
          (String.concat ","
             (List.map (fun (k, v) -> json_escape k ^ ":" ^ json_escape v) kvs))
  in
  Printf.sprintf
    "{\"seq\":%d,\"ts_ms\":%s,\"severity\":%s,\"kind\":%s,\"message\":%s%s}"
    e.Log.seq (num e.Log.ts_ms)
    (json_escape (Log.severity_to_string e.Log.severity))
    (json_escape (Log.kind_to_string e.Log.kind))
    (json_escape e.Log.message) fields

let events_jsonl ?last () =
  String.concat "" (List.map (fun e -> event_jsonl e ^ "\n") (Log.events ?last ()))

(* One compact line so the flight dump stays greppable line-by-line. *)
let metrics_line () =
  let field (name, stat) = json_escape name ^ ":" ^ metric_json stat in
  Printf.sprintf "{\"metrics\":{%s}}\n"
    (String.concat "," (List.map field (Metrics.snapshot ())))

let flight ?last () = events_jsonl ?last () ^ metrics_line ()
let write_flight ?last path = write_file path (flight ?last ())

(* ---- Protected output flushing ----------------------------------- *)

(* One registration path for every [--*-out] writer across the three
   binaries. Writers run exactly once — on [flush_now], on a raised
   exception under [flush_protect], or on process exit (including
   [exit n] from a typed error path) via a single [at_exit] hook — so a
   crash dump or trace file survives the same failures it is meant to
   explain. *)
let flushers : (unit -> unit) list ref = ref []
let exit_hook_installed = ref false

let flush_now () =
  let fs = !flushers in
  flushers := [];
  List.iter
    (fun f ->
      try f ()
      with e ->
        Printf.eprintf "warning: output flush failed: %s\n%!"
          (Printexc.to_string e))
    fs

let on_exit_flush f =
  if not !exit_hook_installed then begin
    exit_hook_installed := true;
    at_exit flush_now
  end;
  flushers := !flushers @ [ f ]

let flush_protect body = Fun.protect ~finally:flush_now body
