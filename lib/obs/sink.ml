type span = {
  id : int;
  parent : int option;
  depth : int;
  name : string;
  cat : string;
  args : (string * string) list;
  ts_ms : float;
  dur_ms : float;
}

type tracer = {
  mutable clock : Clock.t;
  mutable live : bool;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;
}

type t = {
  tracer : tracer;
  root : int option;
  depth : int;
  mutable replay : (unit -> unit) list;
}

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let installed () = Domain.DLS.get key
let push b write = b.replay <- write :: b.replay
