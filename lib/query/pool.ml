(* Results are published through per-slot writes (each slot has exactly
   one writer) and read only after Domain.join of every worker, which
   establishes the necessary happens-before edges. *)

let run_parallel ~domains ~tasks f =
  (* Telemetry fork: one buffer per task, created on the coordinating
     domain (so it captures the enclosing span) before any worker
     starts. Each buffer is written by exactly one task and merged only
     after every join, like the result slots. A fork is [None] when no
     recorder is live, so an unobserved run allocates one array of
     [None] and nothing else. *)
  let bufs = Array.init tasks (fun _ -> Obs.Telemetry.fork ()) in
  let instrumented i = Obs.Telemetry.with_buffer bufs.(i) (fun () -> f i) in
  let results = Array.make tasks None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < tasks then begin
        (results.(i) <-
           (match instrumented i with
           | v -> Some (Ok v)
           | exception e -> Some (Error e)));
        loop ()
      end
    in
    loop ()
  in
  let helpers =
    List.init
      (min (domains - 1) (tasks - 1))
      (fun _ -> Stdlib.Domain.spawn worker)
  in
  worker ();
  List.iter Stdlib.Domain.join helpers;
  (* Merge buffers for tasks 0..k in index order, where k is the
     lowest-numbered failing task (or the last task when none failed).
     An inline run would have recorded exactly tasks 0..k-1 in full
     plus task k's partial telemetry before the exception escaped;
     replaying in that order — and dropping whatever tasks > k did —
     reproduces it byte for byte. *)
  let merge_through k =
    for i = 0 to k do
      Obs.Telemetry.merge bufs.(i)
    done
  in
  (* Ascending scan, not Array.map, so the lowest-numbered failure wins
     regardless of which worker hit it (or of map's visit order). *)
  for i = 0 to tasks - 1 do
    match results.(i) with
    | Some (Error e) ->
        merge_through i;
        raise e
    | _ -> ()
  done;
  merge_through (tasks - 1);
  Array.map
    (function
      | Some (Ok v) -> v
      | _ -> assert false (* every index < tasks was claimed *))
    results

let run ~domains ~tasks f =
  if tasks < 0 then invalid_arg "Pool.run: negative task count"
  else if tasks = 0 then [||]
  else if domains <= 1 || tasks = 1 then begin
    (* Explicit ascending loop: Array.init's evaluation order is
       unspecified, and the inline path must visit tasks in index order
       so that exceptions and any caller-shared state (the single-worker
       mode exists precisely to permit it) behave deterministically. *)
    let first = f 0 in
    let out = Array.make tasks first in
    for i = 1 to tasks - 1 do
      out.(i) <- f i
    done;
    out
  end
  else run_parallel ~domains ~tasks f
