let fork () =
  if not (Metrics.on () || Trace.on () || Log.on ()) then None
  else
    let d = Trace.default in
    Some
      { Sink.tracer =
          { clock = d.clock; live = d.live; next_id = 0; stack = []; spans = [] };
        root = (match d.stack with [] -> None | p :: _ -> Some p);
        depth = List.length d.stack;
        replay = [] }

let with_buffer buf f =
  match buf with
  | None -> f ()
  | Some _ ->
      let prev = Domain.DLS.get Sink.key in
      Domain.DLS.set Sink.key buf;
      Fun.protect ~finally:(fun () -> Domain.DLS.set Sink.key prev) f

(* Writes replay oldest first. Span ids are allocated in start order
   from 0 in the buffer, so [base + id], with [base] the default
   tracer's count at the merge, is the id an inline run would have
   given each span. *)
let merge = function
  | None -> ()
  | Some (b : Sink.t) ->
      List.iter (fun write -> write ()) (List.rev b.replay);
      let d = Trace.default and local = b.tracer in
      let base = d.next_id in
      let spans =
        List.map
          (fun (e : Sink.span) ->
            { e with
              id = base + e.id;
              parent =
                (match e.parent with
                | Some p -> Some (base + p)
                | None -> b.root);
              depth = e.depth + b.depth })
          local.spans
      in
      d.spans <- spans @ d.spans;
      d.next_id <- base + local.next_id
