(* How fast the machine is running right now. Other tenants of a shared
   machine slow everything for seconds to minutes at a time, by up to
   1.7x, which no amount of repetition inside one run can average away.
   Each run therefore times a fixed reference task next to its ops and
   reports its times scaled to the pace at which the task takes
   [reference_ms] (Summary.at_pace).

   The task has two parts, and no change to ERIDB can change the work
   of either:
   - it builds a map of string keys and sorts a list, with the standard
     library only, in a process of its own that is forked before the run
     allocates much, so the size of the program's heap cannot change its
     time either;
   - it writes and reads back a 32 MB buffer outside the OCaml heap,
     allocating nothing.
   On 10 seeds of each workload, scaling by both parts together left a
   run-to-run spread of 2-6%, against up to 9% for either part alone
   and up to 14% unscaled. Tasks that allocate nothing (the second part,
   a pointer chase through 32 MB or 1 MB, a loop in registers) slowed by
   5-10% in a stretch where the ops slowed by 45%. *)

(* The task's median time over the runs that set BENCHMARK.json's
   bounds, on the 2-core machine that also recorded LEDGER.json, so
   scaled times read close to raw ones there. *)
let reference_ms = 30.0

module Keys = Map.Make (String)

let allocating_part () =
  let t0 = Unix.gettimeofday () in
  let m = ref Keys.empty in
  for i = 0 to 9_999 do
    m := Keys.add (string_of_int (i * 7919 mod 10_007)) i !m
  done;
  let s = Keys.fold (fun k v acc -> acc + String.length k + v) !m 0 in
  let l = List.sort compare (List.init 25_000 (fun i -> i * 7919 mod 25_013)) in
  ignore (Sys.opaque_identity (s + List.length l));
  (Unix.gettimeofday () -. t0) *. 1e3

(* Filled once up front, so no timing pays for the first touch of its
   pages. *)
let buffer =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 22) in
     Bigarray.Array1.fill a 0;
     a)

let streaming_part () =
  let buffer = Lazy.force buffer in
  let n = Bigarray.Array1.dim buffer in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set buffer i i
  done;
  let sum = ref 0 in
  for i = 0 to n - 1 do
    sum := !sum + Bigarray.Array1.unsafe_get buffer i
  done;
  ignore (Sys.opaque_identity !sum);
  (Unix.gettimeofday () -. t0) *. 1e3

(* The process that runs the allocating part, one request at a time. *)
type t = { pid : int; request : Unix.file_descr; reply : in_channel }

let start () =
  flush_all ();
  let req_r, req_w = Unix.pipe () and rep_r, rep_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close rep_r;
      let byte = Bytes.create 1 in
      let rec serve () =
        (* The run closing its end of the pipe is the signal to stop. *)
        if Unix.read req_r byte 0 1 = 0 then Unix._exit 0;
        let line = Printf.sprintf "%h\n" (allocating_part ()) in
        ignore (Unix.write_substring rep_w line 0 (String.length line));
        serve ()
      in
      (try serve () with _ -> Unix._exit 2)
  | pid ->
      Unix.close req_r;
      Unix.close rep_w;
      { pid; request = req_w; reply = Unix.in_channel_of_descr rep_r }

(* One timing of the whole task, in ms. The run waits for it, so the
   task never runs next to an op. *)
let sample p =
  ignore (Unix.write_substring p.request "x" 0 1);
  let allocating = float_of_string (input_line p.reply) in
  allocating +. streaming_part ()

let stop p =
  Unix.close p.request;
  close_in p.reply;
  ignore (Unix.waitpid [] p.pid)
