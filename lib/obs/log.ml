type severity = Debug | Info | Warn | Error

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type kind =
  | Retry
  | Degrade
  | Escalation
  | Quarantine
  | Store_commit
  | Recovery_error
  | Shard_spawn
  | Shard_merge

let kind_to_string = function
  | Retry -> "retry"
  | Degrade -> "degrade"
  | Escalation -> "escalation"
  | Quarantine -> "quarantine"
  | Store_commit -> "store_commit"
  | Recovery_error -> "recovery_error"
  | Shard_spawn -> "shard_spawn"
  | Shard_merge -> "shard_merge"

type event = {
  seq : int;
  ts_ms : float;
  severity : severity;
  kind : kind;
  message : string;
  fields : (string * string) list;
}

(* Bounded ring keyed by sequence number: slot [seq mod capacity]. The
   journal keeps the most recent [capacity] surviving events; older
   ones are overwritten in place, never shifted, so recording is O(1)
   and allocation-free apart from the event itself. *)
let cap = 256
let ring : event option array = Array.make cap None
let next_seq = ref 0
let clock = ref (Clock.wall ())
let live = ref false

let on () = !live
let enable () = live := true
let disable () = live := false
let set_clock c = clock := c
let capacity () = cap

let events ?last () =
  let lo = max 0 (!next_seq - cap) in
  let all = ref [] in
  for seq = !next_seq - 1 downto lo do
    match ring.(seq mod cap) with
    | Some e when e.seq = seq -> all := e :: !all
    | _ -> ()
  done;
  let all = !all in
  match last with
  | None -> all
  | Some n when n <= 0 -> []
  | Some n ->
      let len = List.length all in
      if len <= n then all else List.filteri (fun i _ -> i >= len - n) all

let clear () =
  Array.fill ring 0 cap None;
  next_seq := 0

let insert ~ts_ms ~severity ~kind ~fields message =
  let seq = !next_seq in
  next_seq := seq + 1;
  ring.(seq mod cap) <- Some { seq; ts_ms; severity; kind; message; fields }

(* Inside a pool task the event is buffered without a sequence number;
   the merge inserts it on the coordinating domain, in task order, so
   numbering (and any ring wrap-around) is the inline run's. *)
let record ?(severity = Info) ?(fields = []) kind message =
  if !live then
    let ts_ms = !clock.Clock.now_ms () in
    match Sink.installed () with
    | Some b ->
        Sink.push b (fun () -> insert ~ts_ms ~severity ~kind ~fields message)
    | None -> insert ~ts_ms ~severity ~kind ~fields message

let pp_event ppf e =
  let fields =
    match e.fields with
    | [] -> ""
    | fs ->
        " ("
        ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) fs)
        ^ ")"
  in
  Format.fprintf ppf "#%d %-5s %-14s %s%s" e.seq
    (severity_to_string e.severity)
    (kind_to_string e.kind) e.message fields

let pp_events ppf evs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    pp_event ppf evs
