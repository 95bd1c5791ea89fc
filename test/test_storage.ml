(* Storage-layer extensions: secondary indexes, text snapshots (a
   directory of .erd files, Erm.Io.save_dir/load_dir), and query
   EXPLAIN. *)

module V = Dst.Value
module S = Dst.Support

(* --- indexes ---------------------------------------------------------- *)

let colors = Dst.Domain.of_strings "color" [ "red"; "green"; "blue" ]

let schema =
  Erm.Schema.make ~name:"cars"
    ~key:[ Erm.Attr.definite "plate" "string" ]
    ~nonkey:
      [ Erm.Attr.definite "city" "string";
        Erm.Attr.evidential "color" colors ]

let car ?(tm = S.certain) plate city color =
  Erm.Etuple.make schema
    ~key:[ V.string plate ]
    ~cells:
      [ Erm.Etuple.Definite (V.string city);
        Erm.Etuple.Evidence (Dst.Evidence.of_string colors color) ]
    ~tm

let cars =
  Erm.Relation.of_tuples schema
    [ car "p1" "oslo" "[red^1]";
      car "p2" "bergen" "[green^1]";
      car ~tm:(S.make ~sn:0.4 ~sp:0.9) "p3" "oslo" "[blue^0.5; ~^0.5]";
      car "p4" "tromso" "[red^0.5; green^0.5]" ]

let test_index_build_lookup () =
  let idx = Erm.Index.build cars "city" in
  Alcotest.(check string) "attr" "city" (Erm.Index.attr idx);
  Alcotest.(check int) "three distinct cities" 3
    (Erm.Index.distinct_values idx);
  Alcotest.(check int) "two in oslo" 2
    (List.length (Erm.Index.lookup idx (V.string "oslo")));
  Alcotest.(check int) "none in paris" 0
    (List.length (Erm.Index.lookup idx (V.string "paris")))

let test_index_on_key_attr () =
  let idx = Erm.Index.build cars "plate" in
  Alcotest.(check int) "keys are unique" 4 (Erm.Index.distinct_values idx);
  Alcotest.(check int) "exact hit" 1
    (List.length (Erm.Index.lookup idx (V.string "p3")))

let test_index_rejects_evidential () =
  Alcotest.check_raises "color is evidential"
    (Erm.Index.Not_definite "color") (fun () ->
      ignore (Erm.Index.build cars "color"))

let test_index_select_matches_scan () =
  let idx = Erm.Index.build cars "city" in
  List.iter
    (fun city ->
      let via_index = Erm.Index.select_eq idx cars (V.string city) in
      let via_scan =
        Erm.Ops.select
          (Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "city")
             (Erm.Predicate.Const (Erm.Etuple.Definite (V.string city))))
          cars
      in
      Alcotest.(check bool)
        (city ^ ": index = scan")
        true
        (Erm.Relation.equal via_index via_scan))
    [ "oslo"; "bergen"; "tromso"; "paris" ]

let test_index_usable_for () =
  let idx = Erm.Index.build cars "city" in
  let eq_pred =
    Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "city")
      (Erm.Predicate.Const (Erm.Etuple.Definite (V.string "oslo")))
  in
  Alcotest.(check bool) "field = const" true
    (Erm.Index.usable_for idx eq_pred = Some (V.string "oslo"));
  let flipped =
    Erm.Predicate.theta Erm.Predicate.Eq
      (Erm.Predicate.Const (Erm.Etuple.Definite (V.string "oslo")))
      (Erm.Predicate.Field "city")
  in
  Alcotest.(check bool) "const = field" true
    (Erm.Index.usable_for idx flipped = Some (V.string "oslo"));
  let is_single = Erm.Predicate.is_values "city" [ "oslo" ] in
  Alcotest.(check bool) "singleton IS" true
    (Erm.Index.usable_for idx is_single = Some (V.string "oslo"));
  let is_pair = Erm.Predicate.is_values "city" [ "oslo"; "bergen" ] in
  Alcotest.(check bool) "non-singleton IS unusable" true
    (Erm.Index.usable_for idx is_pair = None);
  let other = Erm.Predicate.is_values "plate" [ "p1" ] in
  Alcotest.(check bool) "different attribute unusable" true
    (Erm.Index.usable_for idx other = None)

(* --- text snapshots (Erm.Io.save_dir / load_dir) ---------------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eridb_cat_%d_%d" (Unix.getpid ()) (Random.int 100000))
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

let named = List.map (fun r -> (Erm.Schema.name (Erm.Relation.schema r), r))

let test_catalog_roundtrip () =
  with_temp_dir (fun dir ->
      Erm.Io.save_dir dir [ ("ra", Paperdata.r_a); ("rb", Paperdata.r_b) ];
      let env = named (Erm.Io.load_dir dir) in
      Alcotest.(check (list string)) "names" [ "ra"; "rb" ] (List.map fst env);
      Alcotest.(check bool) "ra round-trips" true
        (Erm.Relation.equal (List.assoc "ra" env) Paperdata.r_a);
      Alcotest.(check bool) "rb round-trips" true
        (Erm.Relation.equal (List.assoc "rb" env) Paperdata.r_b);
      (* The snapshot doubles as a query environment. *)
      let result = Query.Eval.run env "ra UNION rb" in
      Alcotest.(check bool) "env queries work" true
        (Erm.Relation.equal result Paperdata.table4))

let test_catalog_put_replaces_and_renames () =
  with_temp_dir (fun dir ->
      Erm.Io.save_dir dir [ ("x", Paperdata.r_a); ("x", Paperdata.r_b) ];
      Alcotest.(check (list string)) "replace keeps one file" [ "x.erd" ]
        (Array.to_list (Sys.readdir dir));
      match Erm.Io.load_dir dir with
      | [ x ] ->
          Alcotest.(check string) "stored under the given name" "x"
            (Erm.Schema.name (Erm.Relation.schema x));
          Alcotest.(check bool) "latest wins" true
            (Erm.Relation.equal x Paperdata.r_b)
      | rs -> Alcotest.failf "expected 1 relation, got %d" (List.length rs))

(* The directory is the snapshot, so writing one must not delete the
   other .erd files in it — not even one the session has not bound. *)
let test_save_dir_keeps_unrelated_files () =
  with_temp_dir (fun dir ->
      Erm.Io.save_dir dir [ ("keepme", Paperdata.r_b) ];
      Erm.Io.save_dir dir [ ("ra", Paperdata.r_a) ];
      Alcotest.(check bool) "keepme.erd survives" true
        (Sys.file_exists (Filename.concat dir "keepme.erd"));
      Alcotest.(check (list string)) "both load, in file-name order"
        [ "keepme"; "ra" ]
        (List.map fst (named (Erm.Io.load_dir dir))))

let test_catalog_errors () =
  let fails what exn f =
    Alcotest.(check bool)
      what true
      (match f () with _ -> false | exception e -> exn e)
  in
  let io_error = function Erm.Io.Io_error _ -> true | _ -> false in
  fails "missing directory" (function Sys_error _ -> true | _ -> false)
    (fun () -> Erm.Io.load_dir "/nonexistent/nowhere");
  with_temp_dir (fun dir ->
      fails "name with a slash" io_error (fun () ->
          Erm.Io.save_dir dir [ ("a/b", Paperdata.r_a) ]);
      fails "empty name" io_error (fun () ->
          Erm.Io.save_dir dir [ ("", Paperdata.r_a) ]);
      (* Names are checked before anything is written. *)
      fails "bad name after a good one" io_error (fun () ->
          Erm.Io.save_dir dir
            [ ("ok", Paperdata.r_a); ("a\\b", Paperdata.r_a) ]);
      Alcotest.(check bool) "nothing written" false (Sys.file_exists dir))

let test_catalog_commit_is_idempotent () =
  with_temp_dir (fun dir ->
      Erm.Io.save_dir dir [ ("ra", Paperdata.r_a) ];
      Erm.Io.save_dir dir [ ("ra", Paperdata.r_a) ];
      Alcotest.(check (list string)) "no temp file left" [ "ra.erd" ]
        (Array.to_list (Sys.readdir dir));
      Alcotest.(check bool) "still loads" true
        (match Erm.Io.load_dir dir with
        | [ ra ] -> Erm.Relation.equal ra Paperdata.r_a
        | _ -> false))

let test_catalog_random_roundtrip () =
  (* Workload-generated relations (random evidence, memberships, sizes)
     survive the disk format. *)
  let qtest =
    QCheck.Test.make ~name:"text snapshot random roundtrip" ~count:15
      (QCheck.int_range 0 100000) (fun seed ->
        with_temp_dir (fun dir ->
            let r =
              Workload.Gen.relation (Workload.Rng.create seed) ~size:25
                (Workload.Gen.schema "rand")
            in
            Erm.Io.save_dir dir [ ("r", r) ];
            match Erm.Io.load_dir dir with
            | [ r' ] -> Erm.Relation.equal r' r
            | _ -> false))
  in
  match QCheck.Test.check_exn qtest with
  | () -> ()
  | exception QCheck.Test.Test_fail _ -> Alcotest.fail "roundtrip failed"

(* --- explain ---------------------------------------------------------- *)

let env = [ ("ra", Paperdata.r_a); ("rb", Paperdata.r_b) ]

let test_explain_shapes () =
  let node =
    Query.Explain.explain env
      (Query.Parser.parse
         "SELECT rname FROM (ra UNION rb) WHERE rating IS {ex} WITH SN > 0.5")
  in
  Alcotest.(check string) "root is a select" "select" node.Query.Explain.op;
  Alcotest.(check (float 0.0)) "select can keep nothing" 0.0
    node.Query.Explain.rows_min;
  (match node.Query.Explain.children with
  | [ union ] ->
      Alcotest.(check string) "child is the union" "union"
        union.Query.Explain.op;
      Alcotest.(check (float 0.0)) "union max adds" 11.0
        union.Query.Explain.rows_max;
      Alcotest.(check (float 0.0)) "union min is the larger side" 6.0
        union.Query.Explain.rows_min
  | _ -> Alcotest.fail "expected one child");
  let scan = Query.Explain.explain env (Query.Parser.parse "ra") in
  Alcotest.(check (float 0.0)) "scan bounds are the count" 6.0
    scan.Query.Explain.rows_max

let test_explain_product_and_limit () =
  let rb2 = Erm.Ops.rename_attrs (fun n -> "r_" ^ n) Paperdata.r_b in
  let env = ("rb2", rb2) :: env in
  let product = Query.Explain.explain env (Query.Parser.parse "ra TIMES rb2") in
  Alcotest.(check (float 0.0)) "product multiplies" 30.0
    product.Query.Explain.rows_max;
  let limited =
    Query.Explain.explain env
      (Query.Parser.parse "ra ORDER BY SN DESC LIMIT 3")
  in
  Alcotest.(check (float 0.0)) "limit caps" 3.0
    limited.Query.Explain.rows_max

let test_explain_optimized_shows_rewrites () =
  let rb2 = Erm.Ops.rename_attrs (fun n -> "r_" ^ n) Paperdata.r_b in
  let env = ("rb2", rb2) :: env in
  let q =
    Query.Parser.parse "SELECT * FROM (ra TIMES rb2) WHERE rname = r_rname"
  in
  let node = Query.Explain.explain_optimized env q in
  Alcotest.(check string) "product fused into a join" "join"
    node.Query.Explain.op

let test_explain_new_operators () =
  let rb2 = Erm.Ops.rename_attrs (fun n -> "r_" ^ n) Paperdata.r_b in
  let env = ("rb2", rb2) :: env in
  let node q = Query.Explain.explain env (Query.Parser.parse q) in
  let intersect = node "ra INTERSECT rb" in
  Alcotest.(check string) "intersect op" "intersect"
    intersect.Query.Explain.op;
  Alcotest.(check (float 0.0)) "intersect capped by the smaller side" 5.0
    intersect.Query.Explain.rows_max;
  let except = node "ra EXCEPT rb" in
  Alcotest.(check string) "except op" "except" except.Query.Explain.op;
  Alcotest.(check (float 0.0)) "except bounded by the left side" 6.0
    except.Query.Explain.rows_max;
  Alcotest.(check (float 0.0)) "except lower bound" 1.0
    except.Query.Explain.rows_min;
  let prefixed = node "ra PREFIX p_" in
  Alcotest.(check string) "prefix op" "prefix" prefixed.Query.Explain.op;
  Alcotest.(check (float 0.0)) "prefix preserves bounds" 6.0
    prefixed.Query.Explain.rows_max

let test_explain_unknown_relation () =
  Alcotest.(check bool)
    "unknown relation" true
    (match Query.Explain.explain env (Query.Parser.parse "nosuch") with
    | _ -> false
    | exception Query.Eval.Eval_error _ -> true)

let test_explain_rendering () =
  let node = Query.Explain.explain env (Query.Parser.parse "ra UNION rb") in
  let text = Query.Explain.to_string node in
  Alcotest.(check bool) "mentions both scans" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     contains text "scan [ra]" && contains text "scan [rb]"
     && contains text "union")

let () =
  Random.self_init ();
  Alcotest.run "storage"
    [ ( "index",
        [ Alcotest.test_case "build and lookup" `Quick test_index_build_lookup;
          Alcotest.test_case "key attribute" `Quick test_index_on_key_attr;
          Alcotest.test_case "evidential rejected" `Quick
            test_index_rejects_evidential;
          Alcotest.test_case "select_eq = scan select" `Quick
            test_index_select_matches_scan;
          Alcotest.test_case "usable_for" `Quick test_index_usable_for ] );
      ( "catalog",
        [ Alcotest.test_case "roundtrip" `Quick test_catalog_roundtrip;
          Alcotest.test_case "put replaces and renames" `Quick
            test_catalog_put_replaces_and_renames;
          Alcotest.test_case "save_dir keeps unrelated files" `Quick
            test_save_dir_keeps_unrelated_files;
          Alcotest.test_case "errors" `Quick test_catalog_errors;
          Alcotest.test_case "idempotent commit" `Quick
            test_catalog_commit_is_idempotent;
          Alcotest.test_case "random roundtrip (qcheck)" `Quick
            test_catalog_random_roundtrip ] );
      ( "explain",
        [ Alcotest.test_case "shapes and bounds" `Quick test_explain_shapes;
          Alcotest.test_case "product and limit" `Quick
            test_explain_product_and_limit;
          Alcotest.test_case "optimized plan" `Quick
            test_explain_optimized_shows_rewrites;
          Alcotest.test_case "new operators" `Quick
            test_explain_new_operators;
          Alcotest.test_case "unknown relation" `Quick
            test_explain_unknown_relation;
          Alcotest.test_case "rendering" `Quick test_explain_rendering ] ) ]
