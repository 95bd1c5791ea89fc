type fault_code = Eio | Enospc

exception Fault of { op : string; path : string; code : fault_code }

let code_to_string = function Eio -> "EIO" | Enospc -> "ENOSPC"

type t = {
  read_file : string -> string;
  write_file : string -> string -> unit;
  append_file : string -> string -> unit;
  rename : string -> string -> unit;
  remove : string -> unit;
  mkdir_p : string -> unit;
  exists : string -> bool;
  file_size : string -> int;
  truncate_file : string -> int -> unit;
  list_dir : string -> string list;
}

(* --- the real thing ------------------------------------------------- *)

let really_read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Durability on a POSIX filesystem needs the directory entry synced as
   well as the file contents; a missing directory fsync is exactly the
   window where a crash loses a freshly renamed manifest. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write_fd path flags content =
  let fd = Unix.openfile path flags 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length content in
      let written = ref 0 in
      while !written < n do
        written :=
          !written + Unix.write_substring fd content !written (n - !written)
      done;
      Unix.fsync fd)

let real =
  {
    read_file = really_read;
    write_file =
      (fun path content ->
        write_fd path Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] content;
        fsync_dir (Filename.dirname path));
    append_file =
      (fun path content ->
        write_fd path Unix.[ O_WRONLY; O_CREAT; O_APPEND ] content);
    rename =
      (fun src dst ->
        Sys.rename src dst;
        fsync_dir (Filename.dirname dst));
    remove = Sys.remove;
    mkdir_p =
      (fun dir ->
        let rec mk d =
          if not (Sys.file_exists d) then begin
            mk (Filename.dirname d);
            try Unix.mkdir d 0o755
            with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
          end
        in
        mk dir);
    exists = Sys.file_exists;
    file_size =
      (fun path ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> in_channel_length ic));
    truncate_file = (fun path len -> Unix.truncate path len);
    list_dir = (fun dir -> Array.to_list (Sys.readdir dir));
  }

(* --- deterministic fault injection ---------------------------------- *)

type spec = {
  eio_rate : float;  (** fail before a single byte is written *)
  enospc_rate : float;  (** write a random prefix, then fail *)
  short_rate : float;  (** silently write a random prefix *)
  torn_at : int option;  (** deterministically cut every write at byte k *)
  flip_rate : float;  (** flip one random bit of the written content *)
  fsync_eio_rate : float;  (** data written, the flush fails *)
  rename_fail_rate : float;  (** rename fails, target untouched *)
}

let spec_default =
  {
    eio_rate = 0.0;
    enospc_rate = 0.0;
    short_rate = 0.0;
    torn_at = None;
    flip_rate = 0.0;
    fsync_eio_rate = 0.0;
    rename_fail_rate = 0.0;
  }

type plan = (string option * spec) list

let classify path =
  let base = Filename.basename path in
  if String.length base >= 8 && String.sub base 0 8 = "MANIFEST" then
    "manifest"
  else if Filename.check_suffix base ".seg" then "segment"
  else "other"

(* Same surface syntax as Federation.Fault.plan_of_string:
   [class:key=value,key=value;class:…], where the class is [segment],
   [manifest], [other] or [*] (the default entry). *)
let plan_of_string s =
  let ( let* ) = Result.bind in
  let parse_rate key v =
    match float_of_string_opt v with
    | Some f when f >= 0.0 && f <= 1.0 -> Ok f
    | Some _ | None ->
        Error (Printf.sprintf "%s needs a rate in [0,1], got %s" key v)
  in
  let parse_entry entry =
    match String.index_opt entry ':' with
    | None -> Error (Printf.sprintf "missing ':' in %S" entry)
    | Some i ->
        let name = String.trim (String.sub entry 0 i) in
        let name = if name = "*" then None else Some name in
        let body =
          String.sub entry (i + 1) (String.length entry - i - 1)
        in
        let* spec =
          List.fold_left
            (fun acc kv ->
              let* spec = acc in
              let kv = String.trim kv in
              if kv = "" then Ok spec
              else
                match String.index_opt kv '=' with
                | None -> Error (Printf.sprintf "missing '=' in %S" kv)
                | Some j -> (
                    let key = String.sub kv 0 j in
                    let v =
                      String.sub kv (j + 1) (String.length kv - j - 1)
                    in
                    match key with
                    | "eio" ->
                        let* r = parse_rate key v in
                        Ok { spec with eio_rate = r }
                    | "enospc" ->
                        let* r = parse_rate key v in
                        Ok { spec with enospc_rate = r }
                    | "short" ->
                        let* r = parse_rate key v in
                        Ok { spec with short_rate = r }
                    | "flip" ->
                        let* r = parse_rate key v in
                        Ok { spec with flip_rate = r }
                    | "fsync_eio" ->
                        let* r = parse_rate key v in
                        Ok { spec with fsync_eio_rate = r }
                    | "rename" ->
                        let* r = parse_rate key v in
                        Ok { spec with rename_fail_rate = r }
                    | "torn_at" -> (
                        match int_of_string_opt v with
                        | Some k when k >= 0 ->
                            Ok { spec with torn_at = Some k }
                        | Some _ | None ->
                            Error
                              (Printf.sprintf
                                 "torn_at needs a byte offset, got %s" v))
                    | _ -> Error (Printf.sprintf "unknown fault key %S" key)))
            (Ok spec_default)
            (String.split_on_char ',' body)
        in
        Ok (name, spec)
  in
  List.fold_left
    (fun acc entry ->
      let* plan = acc in
      let entry = String.trim entry in
      if entry = "" then Ok plan
      else
        let* e = parse_entry entry in
        Ok (plan @ [ e ]))
    (Ok [])
    (String.split_on_char ';' s)

(* Exact class entries win over the [*] default regardless of order. *)
let spec_for plan cls =
  match
    List.find_opt
      (function Some n, _ -> String.equal n cls | None, _ -> false)
      plan
  with
  | Some (_, s) -> s
  | None -> (
      match List.find_opt (fun (n, _) -> n = None) plan with
      | Some (_, s) -> s
      | None -> spec_default)

(* Self-contained splitmix64 (same generator family as Workload.Rng) so
   the store does not depend on the workload library. One stream per
   file class, seeded [seed lxor hash class] in the style of
   Federation.Fault's per-source streams: the fault sequence hitting
   segments is independent of how often the manifest is written. *)
let rng_float state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  Int64.to_float (shift_right_logical z 11) /. 9007199254740992.0

let rng_int state bound =
  if bound <= 0 then 0 else int_of_float (rng_float state *. float bound)

let faulty ~seed ~plan io =
  let streams : (string, int64 ref) Hashtbl.t = Hashtbl.create 4 in
  let stream cls =
    match Hashtbl.find_opt streams cls with
    | Some s -> s
    | None ->
        let s = ref (Int64.of_int (seed lxor Hashtbl.hash cls)) in
        Hashtbl.add streams cls s;
        s
  in
  let roll rng rate = rate > 0.0 && rng_float rng < rate in
  let flip_one rng content =
    if String.length content = 0 then content
    else begin
      let b = Bytes.of_string content in
      let i = rng_int rng (Bytes.length b) in
      let bit = rng_int rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      Bytes.to_string b
    end
  in
  (* One decision procedure for both write paths: which prefix lands on
     disk, whether it is mangled, and which typed fault (if any) the
     caller sees. Short and torn writes are silent — a crashed process
     does not get to observe its own torn write; the commit protocol's
     size verification and the recovery scan are what must catch it. *)
  let inject op path content write =
    let spec = spec_for plan (classify path) in
    let rng = stream (classify path) in
    if roll rng spec.eio_rate then
      raise (Fault { op; path; code = Eio });
    let cut =
      match spec.torn_at with
      | Some k -> Some (min k (String.length content))
      | None ->
          if roll rng spec.short_rate then
            Some (rng_int rng (String.length content))
          else None
    in
    let enospc = roll rng spec.enospc_rate in
    let cut =
      if enospc && cut = None then Some (rng_int rng (String.length content))
      else cut
    in
    let payload =
      match cut with
      | Some k -> String.sub content 0 k
      | None -> content
    in
    let payload =
      if roll rng spec.flip_rate then flip_one rng payload else payload
    in
    write path payload;
    if enospc then raise (Fault { op; path; code = Enospc });
    if roll rng spec.fsync_eio_rate then
      raise (Fault { op = op ^ ".fsync"; path; code = Eio })
  in
  {
    io with
    write_file = (fun path c -> inject "write" path c io.write_file);
    append_file = (fun path c -> inject "append" path c io.append_file);
    rename =
      (fun src dst ->
        let spec = spec_for plan (classify dst) in
        let rng = stream (classify dst) in
        if roll rng spec.rename_fail_rate then
          raise (Fault { op = "rename"; path = dst; code = Eio });
        io.rename src dst);
  }
