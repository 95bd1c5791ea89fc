(* The traced run's instruments. The program gets no spans of its own
   here: the ledger wraps each call it makes into a layer's public
   function in a span on a tracer it owns, and a layer's self time is
   its spans' duration minus the part their child spans cover. *)

let now () = Unix.gettimeofday ()

(* Set while a traced op or the traced set-up runs; [None] makes every
   wrapper below a direct call. *)
let tracer : Obs.Trace.t option ref = ref None

let span name f =
  match !tracer with
  | None -> f ()
  | Some t -> Obs.Trace.with_span ~tracer:t ~cat:"ledger" name f

(* Erm.Io.load, with the bytes, time and minor words it takes while
   tracing (for io.mb_per_s and io.alloc_words_per_byte). *)
let io_bytes = ref 0
let io_seconds = ref 0.0
let io_words = ref 0.0

let load path =
  match !tracer with
  | None -> Erm.Io.load path
  | Some _ ->
      let bytes = (Unix.stat path).Unix.st_size in
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let rels = span "io.load" (fun () -> Erm.Io.load path) in
      io_seconds := !io_seconds +. (now () -. t0);
      io_words := !io_words +. (Gc.minor_words () -. w0);
      io_bytes := !io_bytes + bytes;
      rels

let load_one path =
  match load path with
  | [ r ] -> r
  | rels ->
      failwith
        (Printf.sprintf "%s: expected one relation, found %d" path
           (List.length rels))

(* Operator statistics from Physical.execute_measured reports taken
   while tracing. *)
type op_totals = {
  mutable self_ns : float;
  mutable rows_in : int;
  mutable rows_out : int;
  mutable index_hits : int;
  mutable index_misses : int;
  mutable cache_misses : int;
}

let operators : (string, op_totals) Hashtbl.t = Hashtbl.create 16
let reports = ref 0

let record_report report =
  incr reports;
  let rec go (r : Query.Physical.report) =
    let t =
      match Hashtbl.find_opt operators r.r_op with
      | Some t -> t
      | None ->
          let t =
            { self_ns = 0.0;
              rows_in = 0;
              rows_out = 0;
              index_hits = 0;
              index_misses = 0;
              cache_misses = 0 }
          in
          Hashtbl.replace operators r.r_op t;
          t
    in
    let s = r.r_stats in
    t.self_ns <- t.self_ns +. s.Query.Stats.wall_ns;
    t.rows_in <- t.rows_in + s.rows_in;
    t.rows_out <- t.rows_out + s.rows_out;
    t.index_hits <- t.index_hits + s.index_hits;
    t.index_misses <- t.index_misses + s.index_misses;
    t.cache_misses <- t.cache_misses + s.cache_misses;
    List.iter go r.r_children
  in
  go report

(* Run a plan inline, keeping its operator report when tracing. *)
let execute ?ctx env plan =
  match !tracer with
  | None -> Query.Physical.execute ?ctx env plan
  | Some _ ->
      let out, report =
        span "query.exec" (fun () ->
            Query.Physical.execute_measured ?ctx env plan)
      in
      record_report report;
      out

(* Parse and plan a query text, each in its own span. *)
let plan env text =
  let q = span "query.parse" (fun () -> Query.Parser.parse text) in
  span "query.plan" (fun () -> Query.Physical.plan_optimized env q)

(* ---- Reading the trace back ---- *)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

type phase = {
  self_ms : (string, float) Hashtbl.t;  (** layer -> self time *)
  spans_ms : (string, float list) Hashtbl.t;  (** span name -> durations *)
  mutable roots : int;
  mutable root_ms : float;
}

let new_phase () =
  { self_ms = Hashtbl.create 8; spans_ms = Hashtbl.create 16; roots = 0; root_ms = 0.0 }

let add_self p layer ms =
  Hashtbl.replace p.self_ms layer
    (ms +. Option.value ~default:0.0 (Hashtbl.find_opt p.self_ms layer))

let add_span p name ms =
  Hashtbl.replace p.spans_ms name
    (ms :: Option.value ~default:[] (Hashtbl.find_opt p.spans_ms name))

(* Split the forest by root: spans under a "setup" root, spans under
   an "op" root, and everything else (checks and reference runs the
   ledger times outside any op), which lands in [other] whole. *)
let phases t =
  let setup = new_phase () and ops = new_phase () and other = new_phase () in
  let rec walk p (node : Obs.Trace.tree) =
    let child_ms =
      List.fold_left
        (fun acc (c : Obs.Trace.tree) -> acc +. c.event.dur_ms)
        0.0 node.children
    in
    add_self p (layer_of node.event.name) (node.event.dur_ms -. child_ms);
    add_span p node.event.name node.event.dur_ms;
    List.iter (walk p) node.children
  in
  List.iter
    (fun (root : Obs.Trace.tree) ->
      match root.event.name with
      | "setup" | "op" ->
          let p = if root.event.name = "setup" then setup else ops in
          p.roots <- p.roots + 1;
          p.root_ms <- p.root_ms +. root.event.dur_ms;
          List.iter (walk p) root.children
      | _ -> walk other root)
    (Obs.Trace.forest t);
  (setup, ops, other)

let spans p name = Option.value ~default:[] (Hashtbl.find_opt p.spans_ms name)
let total p name = List.fold_left ( +. ) 0.0 (spans p name)

let mean p name =
  match spans p name with
  | [] -> 0.0
  | xs -> total p name /. float_of_int (List.length xs)

let self p layer = Option.value ~default:0.0 (Hashtbl.find_opt p.self_ms layer)

(* ---- Program counters, read with Obs.Metrics enabled ---- *)

(* (count, sum, max) of a histogram; zeros when it never fired. *)
let histogram name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Histogram { count; sum; max; _ }) -> (count, sum, max)
  | _ -> (0, 0.0, 0.0)

let hist_sum name =
  let _, sum, _ = histogram name in
  sum

let hist_mean name =
  match histogram name with
  | count, sum, _ when count > 0 -> sum /. float_of_int count
  | _ -> 0.0

let hist_max_over_mean name =
  match histogram name with
  | count, sum, max when count > 0 && sum > 0.0 -> max /. (sum /. float_of_int count)
  | _ -> 0.0

let gauge name = Option.value ~default:0.0 (Obs.Metrics.last name)
let counter name = float_of_int (Obs.Metrics.counter name)
