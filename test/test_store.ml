(* Crash-safety of the append-only evidence store.

   Two layers:

   - a deterministic fault matrix: every fault class the injector can
     produce (short write, torn write at a byte offset, bit flip,
     EIO/ENOSPC on write, EIO on fsync, rename failure) plus manual
     on-disk damage (tail garbage, truncation into the committed
     prefix, manifest corruption, version skew). Each case asserts the
     store either recovers prefix-consistently — bit-exact relation of
     a previously committed version, with the matching
     store.recovery.* metric incremented — or fails with a typed error
     (Store_error / Io.Fault). Never an uncaught exception, never a
     silently wrong relation.

   - a qcheck crash-recovery fuzz: build a random write history
     (create + up to 3 deltas), then truncate, bit-flip or append
     garbage to any file of the store at any offset. Reopening must
     either recover some committed version exactly or raise
     Store_error. QCHECK_SEED reproduces CI failures locally. *)

module R = Workload.Rng
module G = Workload.Gen
module Rec = Store.Recovery

(* --- fixtures --------------------------------------------------------- *)

let schema = G.schema "st"
let rel seed ~size = G.relation (R.create seed) ~size schema

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eridb_store_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun file -> Sys.remove (Filename.concat dir file))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let with_metrics f =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
    f

let counter = Obs.Metrics.counter

let plan s =
  match Store.Io.plan_of_string s with Ok p -> p | Error m -> failwith m

let faulty seed spec = Store.Io.faulty ~seed ~plan:(plan spec) Store.Io.real

(* Classify an attempt: success, typed recovery error, typed i/o fault.
   Anything else propagates and fails the test — that is the point. *)
let attempt f =
  match f () with
  | v -> `Ok v
  | exception Rec.Store_error e -> `Err e
  | exception (Store.Io.Fault _ as e) ->
      `Fault (Option.value ~default:"fault" (Store.Io.fault_message e))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let flip_byte path k =
  let b = Bytes.of_string (read_file path) in
  Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 1));
  write_file path (Bytes.to_string b)

let check_err name pred = function
  | `Err e ->
      Alcotest.(check bool)
        (name ^ ": " ^ Rec.error_to_string e)
        true (pred e)
  | `Ok _ -> Alcotest.fail (name ^ ": unexpected success")
  | `Fault m -> Alcotest.fail (name ^ ": i/o fault instead of error: " ^ m)

let check_fault name = function
  | `Fault _ -> ()
  | `Ok _ -> Alcotest.fail (name ^ ": unexpected success")
  | `Err e ->
      Alcotest.fail (name ^ ": store error instead of fault: "
                     ^ Rec.error_to_string e)

(* Reopen [dir] and assert it recovered exactly relation [expect] at
   [version], with store.recovery.opens counted. *)
let check_recovers ?(events = 0) name dir ~version ~expect =
  with_metrics (fun () ->
      let t, report = Store.Estore.open_store dir in
      Alcotest.(check int) (name ^ ": version") version (Store.Estore.version t);
      Alcotest.(check bool)
        (name ^ ": relation bit-exact")
        true
        (Exact.rel_equal expect (Store.Estore.relation t));
      Alcotest.(check bool)
        (name ^ ": opens counted")
        true
        (counter "store.recovery.opens" >= 1);
      if events > 0 then
        Alcotest.(check int)
          (name ^ ": recovery events")
          events
          (List.length report.Rec.events))

(* --- round-trip and delta semantics ----------------------------------- *)

let test_roundtrip () =
  with_temp_dir (fun dir ->
      let r = rel 11 ~size:8 in
      let t = Store.Estore.create ~dir ~name:"base" r in
      Alcotest.(check int) "fresh version" 1 (Store.Estore.version t);
      check_recovers "roundtrip" dir ~version:1 ~expect:r)

let test_delta_equals_full_rebuild () =
  with_temp_dir (fun dir ->
      let r1 = rel 21 ~size:10 in
      let d = G.reobserve (R.create 22) r1 in
      let t = Store.Estore.create ~dir ~name:"m" r1 in
      let o = Store.Delta.apply t ~name:"d" d in
      let full =
        (Integration.Multi.integrate
           [ { Integration.Multi.source_name = "m"; source_relation = r1 };
             { Integration.Multi.source_name = "d"; source_relation = d } ])
          .Integration.Multi.integrated
      in
      Alcotest.(check bool)
        "delta fold = full rebuild (bit-exact)" true
        (Exact.rel_equal full o.Store.Delta.relation);
      check_recovers "delta reopen" dir ~version:o.Store.Delta.version
        ~expect:full)

let test_empty_delta_is_noop () =
  with_temp_dir (fun dir ->
      let r = rel 31 ~size:4 in
      let t = Store.Estore.create ~dir ~name:"m" r in
      let empty = Erm.Relation.of_tuples schema [] in
      let o = Store.Delta.apply t ~name:"nothing" empty in
      Alcotest.(check int) "version unchanged" 1 o.Store.Delta.version;
      Alcotest.(check int) "no upserts" 0 o.Store.Delta.upserts;
      Alcotest.(check bool)
        "no second segment" false
        (Sys.file_exists (Filename.concat dir "000002.seg")))

(* --- injected fault matrix -------------------------------------------- *)

(* Shared shape: create v1, attempt a delta through a faulty Io, then
   reopen with the real Io and require v1 back, bit-exact. *)
let delta_under_fault ~spec ~seed dir =
  let r1 = rel 41 ~size:6 in
  let d = G.reobserve (R.create 42) r1 in
  let t = Store.Estore.create ~dir ~name:"m" r1 in
  ignore t;
  let outcome =
    attempt (fun () ->
        let tf, _ = Store.Estore.open_store ~io:(faulty seed spec) dir in
        Store.Delta.apply tf ~name:"d" d)
  in
  (r1, outcome)

let test_torn_write () =
  with_temp_dir (fun dir ->
      let r1, outcome = delta_under_fault ~spec:"segment:torn_at=40" ~seed:7 dir in
      check_err "torn write"
        (function Rec.Torn_tail _ -> true | _ -> false)
        outcome;
      (* The torn segment was never acknowledged: recovery drops it as a
         stray and v1 survives. *)
      check_recovers "after torn write" dir ~version:1 ~expect:r1 ~events:1)

let test_short_write () =
  with_temp_dir (fun dir ->
      let r1, outcome = delta_under_fault ~spec:"segment:short=1" ~seed:3 dir in
      check_err "short write"
        (function Rec.Torn_tail _ -> true | _ -> false)
        outcome;
      check_recovers "after short write" dir ~version:1 ~expect:r1 ~events:1)

let test_write_eio () =
  with_temp_dir (fun dir ->
      let r1, outcome = delta_under_fault ~spec:"segment:eio=1" ~seed:5 dir in
      check_fault "write EIO" outcome;
      (* EIO raises before any byte lands: nothing to clean up. *)
      check_recovers "after write EIO" dir ~version:1 ~expect:r1 ~events:0)

let test_write_enospc () =
  with_temp_dir (fun dir ->
      let r1, outcome = delta_under_fault ~spec:"segment:enospc=1" ~seed:5 dir in
      check_fault "write ENOSPC" outcome;
      (* ENOSPC leaves a prefix behind — recovery removes the stray. *)
      check_recovers "after ENOSPC" dir ~version:1 ~expect:r1 ~events:1)

let test_fsync_eio () =
  with_temp_dir (fun dir ->
      let r1, outcome = delta_under_fault ~spec:"segment:fsync_eio=1" ~seed:9 dir in
      check_fault "fsync EIO" outcome;
      check_recovers "after fsync EIO" dir ~version:1 ~expect:r1 ~events:1)

let test_manifest_rename_failure () =
  with_temp_dir (fun dir ->
      let r1, outcome = delta_under_fault ~spec:"manifest:rename=1" ~seed:13 dir in
      check_fault "manifest rename" outcome;
      (* Both the orphan segment and MANIFEST.tmp are strays. *)
      check_recovers "after rename failure" dir ~version:1 ~expect:r1
        ~events:2)

let test_create_under_rename_failure () =
  with_temp_dir (fun dir ->
      let r = rel 51 ~size:4 in
      let outcome =
        attempt (fun () ->
            Store.Estore.create
              ~io:(faulty 3 "manifest:rename=1")
              ~dir ~name:"m" r)
      in
      check_fault "create rename" outcome;
      (* The manifest never landed: there is no store to recover. *)
      check_err "reopen after failed create"
        (function Rec.No_store _ -> true | _ -> false)
        (attempt (fun () -> Store.Estore.open_store dir)))

(* --- manual on-disk damage -------------------------------------------- *)

let test_bit_flip_in_committed_data () =
  with_temp_dir (fun dir ->
      let r = rel 61 ~size:6 in
      ignore (Store.Estore.create ~dir ~name:"m" r);
      let seg = Filename.concat dir "000001.seg" in
      (* Inside a record payload: CRC catches it. *)
      flip_byte seg (String.length Store.Segment.header + 12);
      with_metrics (fun () ->
          check_err "flip in payload"
            (function Rec.Bad_checksum _ -> true | _ -> false)
            (attempt (fun () -> Store.Estore.open_store dir));
          Alcotest.(check bool)
            "errors counted" true
            (counter "store.recovery.errors" >= 1)))

let test_bit_flip_in_record_magic () =
  with_temp_dir (fun dir ->
      let r = rel 62 ~size:6 in
      ignore (Store.Estore.create ~dir ~name:"m" r);
      let seg = Filename.concat dir "000001.seg" in
      flip_byte seg (String.length Store.Segment.header);
      check_err "flip in record magic"
        (function Rec.Bad_magic _ -> true | _ -> false)
        (attempt (fun () -> Store.Estore.open_store dir)))

let test_tail_garbage_truncated () =
  with_temp_dir (fun dir ->
      let r = rel 63 ~size:6 in
      ignore (Store.Estore.create ~dir ~name:"m" r);
      let seg = Filename.concat dir "000001.seg" in
      write_file seg (read_file seg ^ "\xde\xad\xbe\xef");
      (* Garbage past the committed length is an interrupted append:
         recoverable by truncation, and counted as such. *)
      with_metrics (fun () ->
          let t, report = Store.Estore.open_store dir in
          Alcotest.(check bool)
            "tail truncated" true
            (List.exists
               (function Rec.Truncated_tail _ -> true | _ -> false)
               report.Rec.events);
          Alcotest.(check bool)
            "truncation counted" true
            (counter "store.recovery.truncated_tails" >= 1);
          Alcotest.(check bool)
            "relation intact" true
            (Exact.rel_equal r (Store.Estore.relation t))))

let test_truncation_into_committed_prefix () =
  with_temp_dir (fun dir ->
      let r = rel 64 ~size:6 in
      ignore (Store.Estore.create ~dir ~name:"m" r);
      let seg = Filename.concat dir "000001.seg" in
      let content = read_file seg in
      write_file seg (String.sub content 0 (String.length content - 3));
      (* Committed bytes are gone: that is data loss, not a torn append —
         typed error, never a silent shorter relation. *)
      check_err "committed bytes lost"
        (function Rec.Torn_tail _ -> true | _ -> false)
        (attempt (fun () -> Store.Estore.open_store dir)))

let test_manifest_corruption_falls_back () =
  with_temp_dir (fun dir ->
      let r1 = rel 65 ~size:6 in
      let d = G.reobserve (R.create 66) r1 in
      let t = Store.Estore.create ~dir ~name:"m" r1 in
      ignore (Store.Delta.apply t ~name:"d" d);
      flip_byte (Filename.concat dir "MANIFEST") 3;
      (* MANIFEST.bak still holds v1; the v2 segment it does not list is
         removed as a stray. Fallback is loud: an event and a metric. *)
      with_metrics (fun () ->
          let t2, report = Store.Estore.open_store dir in
          Alcotest.(check int) "fell back to v1" 1 (Store.Estore.version t2);
          Alcotest.(check bool)
            "fallback event" true
            (List.exists
               (function Rec.Manifest_fallback -> true | _ -> false)
               report.Rec.events);
          Alcotest.(check bool)
            "fallback counted" true
            (counter "store.recovery.manifest_fallback" >= 1);
          Alcotest.(check bool)
            "v1 relation bit-exact" true
            (Exact.rel_equal r1 (Store.Estore.relation t2))))

let test_version_skew_never_falls_back () =
  with_temp_dir (fun dir ->
      let r = rel 67 ~size:4 in
      ignore (Store.Estore.create ~dir ~name:"m" r);
      let mpath = Filename.concat dir "MANIFEST" in
      let content = read_file mpath in
      (* Rewrite the format line and re-sign with a valid CRC: the file
         is well-formed, just from the future. *)
      let body =
        match String.index_opt content '\n' with
        | Some i ->
            "eridb-store 99"
            ^ String.sub content i (String.length content - i)
        | None -> Alcotest.fail "manifest has no lines"
      in
      let body_no_crc =
        match String.rindex_opt (String.trim body) '\n' with
        | Some i -> String.sub body 0 (i + 1)
        | None -> Alcotest.fail "manifest has no crc line"
      in
      let signed =
        body_no_crc ^ "crc "
        ^ Store.Crc32.to_hex (Store.Crc32.digest body_no_crc)
        ^ "\n"
      in
      write_file mpath signed;
      check_err "future format"
        (function
          | Rec.Version_skew { found; _ } -> found = 99
          | _ -> false)
        (attempt (fun () -> Store.Estore.open_store dir)))

let test_open_missing_store () =
  check_err "missing directory"
    (function Rec.No_store _ -> true | _ -> false)
    (attempt (fun () -> Store.Estore.open_store "/nonexistent/eridb_store"))

let test_create_over_existing_store () =
  with_temp_dir (fun dir ->
      let r = rel 68 ~size:3 in
      ignore (Store.Estore.create ~dir ~name:"m" r);
      check_err "double create"
        (function Rec.Bad_manifest _ -> true | _ -> false)
        (attempt (fun () -> Store.Estore.create ~dir ~name:"m" r)))

(* --- qcheck crash-recovery fuzz --------------------------------------- *)

let fuzz_count = 150

let prop name arb law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:fuzz_count arb law)

let seed_arb = QCheck.int_range 0 1_000_000

(* Build a random write history; return every committed (version,
   relation) pair, newest first. *)
let build_history dir seed =
  let rng = R.create (seed + 17) in
  let r0 = rel seed ~size:5 in
  let t = Store.Estore.create ~dir ~name:"fuzz" r0 in
  let hist = ref [ (1, Store.Estore.relation t) ] in
  for i = 1 to R.int rng 4 do
    let d = G.reobserve (R.create (seed + (i * 101))) (Store.Estore.relation t) in
    let o = Store.Delta.apply t ~name:(Printf.sprintf "d%d" i) d in
    hist := (o.Store.Delta.version, o.Store.Delta.relation) :: !hist
  done;
  !hist

(* Damage one file of the store at a random offset: truncate, flip one
   bit, or append garbage. *)
let corrupt rng dir =
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let file = List.nth files (R.int rng (List.length files)) in
  let path = Filename.concat dir file in
  let content = read_file path in
  let n = String.length content in
  match R.int rng 3 with
  | 0 -> write_file path (String.sub content 0 (R.int rng (n + 1)))
  | 1 when n > 0 ->
      let k = R.int rng n in
      let b = Bytes.of_string content in
      Bytes.set b k
        (Char.chr (Char.code (Bytes.get b k) lxor (1 lsl R.int rng 8)));
      write_file path (Bytes.to_string b)
  | _ ->
      write_file path
        (content
        ^ String.init
            (1 + R.int rng 16)
            (fun _ -> Char.chr (R.int rng 256)))

let fuzz_props =
  [ prop "any single corruption: recover a committed version or fail typed"
      seed_arb
      (fun seed ->
        with_temp_dir (fun dir ->
            let hist = build_history dir seed in
            corrupt (R.create (seed + 31)) dir;
            match
              attempt (fun () -> Store.Estore.open_store dir)
            with
            | `Ok (t, _) -> (
                (* Prefix consistency: whatever survives must be some
                   version that was actually committed, bit for bit. *)
                match List.assoc_opt (Store.Estore.version t) hist with
                | Some r -> Exact.rel_equal r (Store.Estore.relation t)
                | None -> false)
            | `Err _ -> true
            | `Fault _ -> false));
    prop "delta after recovery = full rebuild (bit-exact)" seed_arb
      (fun seed ->
        with_temp_dir (fun dir ->
            let r1 = rel seed ~size:6 in
            let d1 = G.reobserve (R.create (seed + 1)) r1 in
            let d2 = G.reobserve (R.create (seed + 2)) r1 in
            let t = Store.Estore.create ~dir ~name:"m" r1 in
            ignore (Store.Delta.apply t ~name:"d1" d1);
            (* Tear the next append, recover, then retry it. *)
            (match
               attempt (fun () ->
                   let tf, _ =
                     Store.Estore.open_store
                       ~io:(faulty seed "segment:torn_at=23")
                       dir
                   in
                   Store.Delta.apply tf ~name:"d2" d2)
             with
            | `Err _ | `Fault _ | `Ok _ -> ());
            let t2, _ = Store.Estore.open_store dir in
            let o = Store.Delta.apply t2 ~name:"d2" d2 in
            let full =
              (Integration.Multi.integrate
                 [ { Integration.Multi.source_name = "m";
                     source_relation = r1 };
                   { Integration.Multi.source_name = "d1";
                     source_relation = d1 };
                   { Integration.Multi.source_name = "d2";
                     source_relation = d2 } ])
                .Integration.Multi.integrated
            in
            Exact.rel_equal full o.Store.Delta.relation)) ]

let () =
  Random.self_init ();
  Alcotest.run "store"
    [ ("roundtrip",
       [ Alcotest.test_case "create/open round-trip" `Quick test_roundtrip;
         Alcotest.test_case "delta = full rebuild" `Quick
           test_delta_equals_full_rebuild;
         Alcotest.test_case "empty delta is a no-op" `Quick
           test_empty_delta_is_noop ]);
      ("fault-matrix",
       [ Alcotest.test_case "torn segment write" `Quick test_torn_write;
         Alcotest.test_case "short segment write" `Quick test_short_write;
         Alcotest.test_case "EIO on segment write" `Quick test_write_eio;
         Alcotest.test_case "ENOSPC on segment write" `Quick
           test_write_enospc;
         Alcotest.test_case "EIO on fsync" `Quick test_fsync_eio;
         Alcotest.test_case "manifest rename failure" `Quick
           test_manifest_rename_failure;
         Alcotest.test_case "rename failure during create" `Quick
           test_create_under_rename_failure ]);
      ("on-disk damage",
       [ Alcotest.test_case "bit flip in committed payload" `Quick
           test_bit_flip_in_committed_data;
         Alcotest.test_case "bit flip in record magic" `Quick
           test_bit_flip_in_record_magic;
         Alcotest.test_case "tail garbage is truncated" `Quick
           test_tail_garbage_truncated;
         Alcotest.test_case "truncation into committed prefix" `Quick
           test_truncation_into_committed_prefix;
         Alcotest.test_case "manifest corruption falls back" `Quick
           test_manifest_corruption_falls_back;
         Alcotest.test_case "version skew never falls back" `Quick
           test_version_skew_never_falls_back;
         Alcotest.test_case "open a missing store" `Quick
           test_open_missing_store;
         Alcotest.test_case "create over an existing store" `Quick
           test_create_over_existing_store ]);
      ("fuzz", fuzz_props) ]
