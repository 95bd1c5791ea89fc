type event = Sink.span = {
  id : int;
  parent : int option;
  depth : int;
  name : string;
  cat : string;
  args : (string * string) list;
  ts_ms : float;
  dur_ms : float;
}

type t = Sink.tracer = {
  mutable clock : Clock.t;
  mutable live : bool;
  mutable next_id : int;
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable spans : event list;  (* completed spans, most recent first *)
}

let create ?(clock = Clock.wall ()) () =
  { clock; live = true; next_id = 0; stack = []; spans = [] }

let default =
  { clock = Clock.wall (); live = false; next_id = 0; stack = []; spans = [] }

let set_clock t c = t.clock <- c
let clock t = t.clock
let enable t = t.live <- true
let disable t = t.live <- false
let live t = t.live
let on () = default.live

let count t = t.next_id

(* Without an explicit tracer, a span lands in this domain's installed
   buffer (see [Telemetry]) or else in [default]. *)
let with_span ?tracer ?(cat = "app") ?(args = []) name f =
  let tracer =
    match tracer with
    | Some t -> t
    | None -> (
        match Sink.installed () with Some b -> b.tracer | None -> default)
  in
  if not tracer.live then f ()
  else begin
    let id = tracer.next_id in
    tracer.next_id <- id + 1;
    let parent = match tracer.stack with [] -> None | p :: _ -> Some p in
    let depth = List.length tracer.stack in
    tracer.stack <- id :: tracer.stack;
    let t0 = tracer.clock.Clock.now_ms () in
    Fun.protect
      ~finally:(fun () ->
        let dur_ms = tracer.clock.Clock.now_ms () -. t0 in
        (match tracer.stack with
        | top :: rest when top = id -> tracer.stack <- rest
        | _ -> ());
        tracer.spans <-
          { id; parent; depth; name; cat; args; ts_ms = t0; dur_ms }
          :: tracer.spans)
      f
  end

let events t =
  List.sort (fun a b -> compare a.id b.id) (List.rev t.spans)

let clear t = t.spans <- []

type tree = { event : event; children : tree list }

let forest ?(from = 0) t =
  let evs = List.filter (fun e -> e.id >= from) (events t) in
  let kept = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace kept e.id ()) evs;
  (* Children are grouped under their nearest kept ancestor; spans whose
     parent was cut off (or never closed) become roots. *)
  let rec build e =
    { event = e;
      children =
        List.filter_map
          (fun c ->
            match c.parent with
            | Some p when p = e.id -> Some (build c)
            | _ -> None)
          evs }
  in
  List.filter_map
    (fun e ->
      match e.parent with
      | Some p when Hashtbl.mem kept p -> None
      | _ -> Some (build e))
    evs

let pp_dur ppf ms =
  if ms >= 1.0 then Format.fprintf ppf "%.1fms" ms
  else Format.fprintf ppf "%.1fus" (ms *. 1e3)

let rec pp_tree indent ppf tr =
  let detail =
    match List.assoc_opt "detail" tr.event.args with
    | Some d when d <> "" -> " [" ^ d ^ "]"
    | _ -> ""
  in
  Format.fprintf ppf "%s%s%s %a" indent tr.event.name detail pp_dur
    tr.event.dur_ms;
  List.iter
    (fun child ->
      Format.pp_print_newline ppf ();
      pp_tree (indent ^ "  ") ppf child)
    tr.children

let pp_forest ppf trees =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    (pp_tree "") ppf trees

let summary t =
  let table = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let n, d =
        match Hashtbl.find_opt table e.name with
        | Some (n, d) -> (n, d)
        | None -> (0, 0.0)
      in
      Hashtbl.replace table e.name (n + 1, d +. e.dur_ms))
    t.spans;
  Hashtbl.fold (fun name (n, d) acc -> (name, n, d) :: acc) table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
