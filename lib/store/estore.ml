type t = {
  dir : string;
  io : Io.t;
  mutable manifest : Manifest.t;
  mutable relation : Erm.Relation.t;
}

let segment_name version = Printf.sprintf "%06d.seg" version

let fail e =
  if Obs.Metrics.on () then Obs.Metrics.incr "store.recovery.errors";
  if Obs.Log.on () then
    Obs.Log.record ~severity:Obs.Log.Error Obs.Log.Recovery_error
      (Recovery.error_to_string e);
  raise (Recovery.Store_error e)

(* The commit protocol's cheap self-check: after writing (and fsyncing)
   a segment, ask the filesystem how long the file really is. A short
   or torn write that raised nothing — exactly what a full disk or an
   interrupted kernel buffer leaves behind — is caught here, before the
   manifest ever acknowledges the bytes. *)
let verify_size (io : Io.t) path expected =
  let actual = io.file_size path in
  if actual <> expected then fail (Recovery.Torn_tail { path; offset = actual })

let in_span op f =
  if Obs.Trace.on () then Obs.Trace.with_span ~cat:"store" op f else f ()

let create ?(io = Io.real) ~dir ~name relation =
  in_span "store.create" (fun () ->
      io.mkdir_p dir;
      if io.exists (Manifest.file dir) then
        fail
          (Recovery.Bad_manifest
             { path = Manifest.file dir; detail = "store already exists" });
      let records =
        Segment.Schema_rec
          (Erm.Io.schema_to_string (Erm.Relation.schema relation))
        :: List.map
             (fun t ->
               Segment.Upsert
                 {
                   digest = Segment.digest_of_tuple t;
                   row = Erm.Io.tuple_to_string t;
                 })
             (Erm.Relation.tuples relation)
      in
      let content = Segment.encode_file records in
      let seg = segment_name 1 in
      let path = Filename.concat dir seg in
      io.write_file path content;
      verify_size io path (String.length content);
      let manifest =
        {
          Manifest.format = Manifest.current_format;
          name;
          version = 1;
          segments = [ (seg, String.length content) ];
        }
      in
      Manifest.write io dir manifest;
      if Obs.Metrics.on () then begin
        Obs.Metrics.incr "store.commit.count";
        Obs.Metrics.incr ~by:(List.length records) "store.commit.records"
      end;
      if Obs.Log.on () then
        Obs.Log.record
          ~fields:
            [ ("dir", dir);
              ("segment", seg);
              ("records", string_of_int (List.length records)) ]
          Obs.Log.Store_commit "created store";
      { dir; io; manifest; relation })

let open_store ?(io = Io.real) ?(verify = true) dir =
  in_span "store.open" (fun () ->
      let manifest, relation, report = Recovery.recover ~verify io dir in
      ({ dir; io; manifest; relation }, report))

let relation t = t.relation
let version t = t.manifest.Manifest.version
let name t = t.manifest.Manifest.name
let dir t = t.dir
let segments t = t.manifest.Manifest.segments

(* Read-only re-scan of one committed segment, for batch auditors
   (Analysis.Sweep) that want the record history rather than the
   replayed relation. Recovery already certified these bytes when the
   store opened, so anything but a clean scan of exactly the committed
   prefix means the file changed underneath the live handle. *)
let segment_records t seg =
  match List.assoc_opt seg t.manifest.Manifest.segments with
  | None ->
      fail
        (Recovery.Bad_manifest
           { path = Filename.concat t.dir seg;
             detail = "not a committed segment" })
  | Some committed ->
      let path = Filename.concat t.dir seg in
      if not (t.io.exists path) then
        fail
          (Recovery.Bad_manifest { path; detail = "committed segment missing" });
      let content = t.io.read_file path in
      if String.length content < committed then
        fail (Recovery.Torn_tail { path; offset = String.length content });
      let records, consumed, tail =
        Segment.scan ~verify:true (String.sub content 0 committed)
      in
      (match tail with
      | Segment.Clean when consumed = committed -> ()
      | Segment.Clean | Segment.Torn _ ->
          fail (Recovery.Torn_tail { path; offset = consumed })
      | Segment.Bad_magic_at off ->
          fail (Recovery.Bad_magic { path; offset = off })
      | Segment.Bad_crc_at off ->
          fail (Recovery.Bad_checksum { path; offset = off }));
      records

let fold_segments t ~init ~f =
  List.fold_left
    (fun acc (seg, _) -> f acc seg (segment_records t seg))
    init t.manifest.Manifest.segments

(* One segment per commit: write it whole, verify its real size, then
   move the manifest — the single atomic commit point — over. Nothing
   in the store mutates until every byte is acknowledged, so a fault
   anywhere in here leaves the previous version intact on disk and in
   memory. *)
let append_commit t records new_relation =
  let next = t.manifest.Manifest.version + 1 in
  let seg = segment_name next in
  let path = Filename.concat t.dir seg in
  let content = Segment.encode_file records in
  t.io.write_file path content;
  verify_size t.io path (String.length content);
  let manifest =
    {
      t.manifest with
      Manifest.version = next;
      segments = t.manifest.Manifest.segments @ [ (seg, String.length content) ];
    }
  in
  Manifest.write t.io t.dir manifest;
  t.manifest <- manifest;
  t.relation <- new_relation;
  if Obs.Metrics.on () then begin
    Obs.Metrics.incr "store.commit.count";
    Obs.Metrics.incr ~by:(List.length records) "store.commit.records";
    Obs.Metrics.incr ~by:(String.length content) "store.commit.bytes"
  end;
  if Obs.Log.on () then
    Obs.Log.record
      ~fields:
        [ ("dir", t.dir);
          ("segment", seg);
          ("records", string_of_int (List.length records)) ]
      Obs.Log.Store_commit "committed segment"
