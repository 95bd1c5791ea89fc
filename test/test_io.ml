(* The .erd serialization format: parsing, error reporting with line
   numbers, round-tripping (including the paper's relations), file
   load/save, and the codec's linear cost and exact float encoding.

   Seeds: the qcheck properties honour QCHECK_SEED, which CI pins. *)

module V = Dst.Value
module G = Workload.Gen
module R = Workload.Rng

let sample =
  {|# a comment
relation pets
key name : string
attr age : int
attr kind : evidence {cat, dog, fox}

tuple rex   | 3 | [dog^1]                  | (1, 1)
tuple misty | 9 | [cat^0.8; {cat,fox}^0.2] | (0.5, 0.75)
|}

let test_parse_basics () =
  let r = Erm.Io.relation_of_string sample in
  Alcotest.(check int) "two tuples" 2 (Erm.Relation.cardinal r);
  let schema = Erm.Relation.schema r in
  Alcotest.(check string) "name" "pets" (Erm.Schema.name schema);
  let misty = Erm.Relation.find r [ V.string "misty" ] in
  Alcotest.(check int) "age parsed as int" 9
    (match Erm.Etuple.definite_value schema misty "age" with
    | V.Int n -> n
    | _ -> -1);
  Alcotest.(check (float 1e-9)) "membership" 0.5
    (Dst.Support.sn (Erm.Etuple.tm misty));
  Alcotest.(check (float 1e-9)) "evidence cell" 0.2
    (Dst.Mass.F.mass
       (Erm.Etuple.evidence schema misty "kind")
       (Dst.Vset.of_strings [ "cat"; "fox" ]))

let test_multiple_relations () =
  let rs = Erm.Io.relations_of_string (sample ^ "\n" ^ sample) in
  Alcotest.(check int) "two blocks" 2 (List.length rs);
  Alcotest.(check bool)
    "relation_of_string rejects two blocks" true
    (match Erm.Io.relation_of_string (sample ^ "\n" ^ sample) with
    | _ -> false
    | exception Erm.Io.Io_error _ -> true)

let expect_error_at expected_line input =
  match Erm.Io.relations_of_string input with
  | _ -> Alcotest.failf "should reject: %s" input
  | exception Erm.Io.Io_error { line; _ } ->
      Alcotest.(check int) "error line number" expected_line line

(* The sum prints with twelve significant digits, as the linter's E009
   does: six would round 0.9999999 to 1 and contradict the "not 1". *)
let test_mass_sum_message () =
  match
    Erm.Io.relations_of_string
      "relation r\nkey k : string\nattr e : evidence {a, b}\ntuple x | \
       [a^0.3333333; b^0.6666666] | (1, 1)\n"
  with
  | _ -> Alcotest.fail "a sum of 0.9999999 should be rejected"
  | exception Erm.Io.Io_error { line; col; message } ->
      Alcotest.(check (pair int int)) "position" (4, 11) (line, col);
      Alcotest.(check string) "message"
        "bad evidence for e: masses sum to 0.9999999, not 1" message

let test_error_lines () =
  expect_error_at 1 "tuple a | b\n";
  (* directive before relation *)
  expect_error_at 2 "relation r\nbogus directive\n";
  expect_error_at 3 "relation r\nkey k : string\nattr a : uuid\n";
  expect_error_at 4
    "relation r\nkey k : string\nattr a : int\ntuple x | notanint | (1,1)\n";
  expect_error_at 4
    "relation r\nkey k : string\nattr a : int\ntuple x | 1 | (2, 1)\n";
  expect_error_at 4 "relation r\nkey k : string\nattr a : int\ntuple x | 1\n";
  expect_error_at 5
    "relation r\nkey k : string\nattr a : int\ntuple x | 1 | (1,1)\ntuple x \
     | 2 | (1,1)\n"

(* A quoted literal that does not parse is an Io_error at its token's
   column, in a domain, a key cell and an evidence cell alike, whichever
   entry point reads it. *)
let test_bad_literals () =
  let at line col input =
    match Erm.Io.relations_of_string input with
    | _ -> Alcotest.failf "should reject: %s" input
    | exception Erm.Io.Io_error e ->
        Alcotest.(check (pair int int)) input (line, col) (e.line, e.col)
  in
  at 3 10 "relation r\nkey k : string\nattr e : evidence {\"a, b}\n";
  at 4 7
    "relation r\nkey k : string\nattr e : evidence {a, b}\ntuple \"x\\q\" \
     | [a^1] | (1, 1)\n";
  at 4 11
    "relation r\nkey k : string\nattr e : evidence {a, b}\ntuple x | \
     [\"a\\q\"^1] | (1, 1)\n";
  let schema =
    Erm.Schema.make ~name:"r"
      ~key:[ Erm.Attr.definite "k" "string" ]
      ~nonkey:
        [ Erm.Attr.evidential "e" (Dst.Domain.of_strings "e" [ "a"; "b" ]) ]
  in
  List.iter
    (fun row ->
      match Erm.Io.tuple_of_string schema row with
      | _ -> Alcotest.failf "tuple_of_string accepted %s" row
      | exception Erm.Io.Io_error { line; col; message } ->
          Alcotest.(check (pair int int)) row (0, 0) (line, col);
          Alcotest.(check bool) (row ^ ": " ^ message) true
            (String.length message > 0)
      | exception e ->
          Alcotest.failf "tuple_of_string %s raised %s" row
            (Printexc.to_string e))
    [ "x | [\"a\\q\"^1] | (1, 1)"; "x | [{a, \"b}^1] | (1, 1)";
      "\"x\\q\" | [a^1] | (1, 1)" ]

let test_cwa_on_load () =
  expect_error_at 4
    "relation r\nkey k : string\nattr a : int\ntuple x | 1 | (0, 0.5)\n"

let test_roundtrip_sample () =
  let r = Erm.Io.relation_of_string sample in
  let r' = Erm.Io.relation_of_string (Erm.Io.to_string r) in
  Alcotest.(check bool) "roundtrip" true (Erm.Relation.equal r r')

let test_roundtrip_paper_tables () =
  List.iter
    (fun (name, r) ->
      let r' = Erm.Io.relation_of_string (Erm.Io.to_string r) in
      Alcotest.(check bool) (name ^ " roundtrips") true
        (Erm.Relation.equal r r'))
    [ ("r_a", Paperdata.r_a); ("r_b", Paperdata.r_b);
      ("table4", Paperdata.table4); ("table5", Paperdata.table5) ]

let test_load_save () =
  let path = Filename.temp_file "eridb" ".erd" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Erm.Io.save path [ Paperdata.r_a; Paperdata.r_b ];
      match Erm.Io.load path with
      | [ a; b ] ->
          Alcotest.(check bool) "r_a loads back" true
            (Erm.Relation.equal a Paperdata.r_a);
          Alcotest.(check bool) "r_b loads back" true
            (Erm.Relation.equal b Paperdata.r_b)
      | other -> Alcotest.failf "expected 2 relations, got %d" (List.length other))

(* save writes a temporary file and renames it over the target, so the
   old file is replaced whole, never truncated and rewritten in place: a
   hard link to it (a reader holding it open alike) keeps the old text. *)
let test_save_replaces_whole () =
  let path = Filename.temp_file "eridb" ".erd" in
  let old = path ^ ".old" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ path; old ])
    (fun () ->
      Erm.Io.save path [ Paperdata.r_a ];
      Unix.link path old;
      Erm.Io.save path [ Paperdata.r_b ];
      let only r = function [ x ] -> Erm.Relation.equal x r | _ -> false in
      Alcotest.(check bool) "the link keeps the old relation" true
        (only Paperdata.r_a (Erm.Io.load old));
      Alcotest.(check bool) "the path holds the new one" true
        (only Paperdata.r_b (Erm.Io.load path));
      Alcotest.(check bool) "no temporary file left" false
        (Sys.file_exists (path ^ ".tmp")))

let test_value_kinds_roundtrip () =
  let input =
    {|relation kinds
key id : int
attr label : string
attr score : float
attr flag : bool
tuple 1 | "hello world" | 2.5  | true  | (1, 1)
tuple 2 | plain         | -0.5 | false | (0.3, 0.9)
|}
  in
  let r = Erm.Io.relation_of_string input in
  let r' = Erm.Io.relation_of_string (Erm.Io.to_string r) in
  Alcotest.(check bool) "all kinds roundtrip" true (Erm.Relation.equal r r');
  let schema = Erm.Relation.schema r in
  let t = Erm.Relation.find r [ V.int 1 ] in
  Alcotest.(check bool) "quoted string preserved" true
    (V.equal (V.string "hello world")
       (Erm.Etuple.definite_value schema t "label"));
  (* Separators inside quoted literals: a ',' in an evidence domain
     value, a '|' in a key, a cell and a focal element, and an escaped
     quote before the separator. *)
  let input =
    {|relation seps
key id : string
attr label : string
attr e : evidence {"a, b", c, "x|y"}
tuple "a|b"   | "p|q"     | ["a, b"^0.5; "x|y"^0.5] | (1, 1)
tuple "\"|"  | plain     | [c^1]                   | (1, 1)
|}
  in
  let r = Erm.Io.relation_of_string input in
  let text = Erm.Io.to_string r in
  let r' = Erm.Io.relation_of_string text in
  Alcotest.(check bool) "quoted separators roundtrip" true
    (Erm.Relation.equal r r');
  let schema = Erm.Relation.schema r in
  let t = Erm.Relation.find r [ V.string "a|b" ] in
  Alcotest.(check bool) "'|' inside a quoted cell" true
    (V.equal (V.string "p|q") (Erm.Etuple.definite_value schema t "label"));
  Alcotest.(check int) "',' inside a quoted domain value" 3
    (match Erm.Attr.kind (Erm.Schema.find schema "e") with
    | Erm.Attr.Evidential frame -> Dst.Domain.size frame
    | Erm.Attr.Definite _ -> 0);
  Alcotest.(check bool) "escaped quote before '|'" true
    (Erm.Relation.mem r [ V.string {|"||} ])

let test_csv_roundtrip () =
  let r = Erm.Io.relation_of_string sample in
  let csv = Erm.Render.to_csv ~digits:12 r in
  let r' = Erm.Io.relation_of_csv (Erm.Relation.schema r) csv in
  Alcotest.(check bool) "csv round-trips" true (Erm.Relation.equal r r')

let test_csv_roundtrip_paper () =
  let csv = Erm.Render.to_csv ~digits:12 Paperdata.r_a in
  let r' = Erm.Io.relation_of_csv Paperdata.schema csv in
  Alcotest.(check bool) "R_A survives csv" true
    (Erm.Relation.equal r' Paperdata.r_a)

let test_csv_quoting () =
  (* Quoted fields with commas (evidence sets) and embedded quotes. *)
  let r = Erm.Io.relation_of_string sample in
  let schema = Erm.Relation.schema r in
  let csv = Erm.Render.to_csv ~digits:12 r in
  Alcotest.(check bool) "evidence fields are quoted" true
    (String.length csv > 0
    &&
    let contains sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length csv && (String.sub csv i n = sub || go (i + 1))
      in
      go 0
    in
    contains "\"[");
  Alcotest.(check bool) "reimport parses the quoting" true
    (Erm.Relation.cardinal (Erm.Io.relation_of_csv schema csv) = 2)

let test_csv_errors () =
  let schema = Erm.Relation.schema (Erm.Io.relation_of_string sample) in
  let rejects what input =
    Alcotest.(check bool)
      what true
      (match Erm.Io.relation_of_csv schema input with
      | _ -> false
      | exception Erm.Io.Io_error _ -> true)
  in
  rejects "empty" "";
  rejects "wrong header" "a,b,c\n";
  rejects "short record"
    "name,age,kind,\"(sn,sp)\"\nrex,3\n";
  rejects "unterminated quote"
    "name,age,kind,\"(sn,sp)\"\n\"rex,3,[dog^1],\"(1, 1)\"\n"

(* --- one row per line ------------------------------------------------ *)

(* A frame of [width] values named value_number_NN: a focal set of more
   than five of them is wider than Format's 78-column margin. *)
let wide_frame width =
  Dst.Domain.of_values "wide"
    (List.init width (fun i -> V.string (Printf.sprintf "value_number_%02d" i)))

let frame20 = wide_frame 20

(* One tuple whose cell puts mass on 19 of the 20 values. *)
let wide_relation () =
  let schema =
    Erm.Schema.make ~name:"wide"
      ~key:[ Erm.Attr.definite "k" "string" ]
      ~nonkey:[ Erm.Attr.evidential "e" frame20 ]
  in
  let nineteen =
    Dst.Vset.of_list (List.tl (Dst.Vset.to_list (Dst.Domain.values frame20)))
  in
  let e =
    Dst.Mass.F.make frame20
      [ (nineteen, 0.75); (Dst.Domain.values frame20, 0.25) ]
  in
  Erm.Relation.of_tuples schema
    [ Erm.Etuple.make schema ~key:[ V.string "k1" ]
        ~cells:[ Erm.Etuple.Evidence e ] ~tm:Dst.Support.certain ]

let count_lines prefix text =
  List.length
    (List.filter
       (fun l -> String.starts_with ~prefix l)
       (String.split_on_char '\n' text))

let test_long_set_one_line () =
  let r = wide_relation () in
  let text = Erm.Io.to_string r in
  Alcotest.(check int) "one tuple line" 1 (count_lines "tuple " text);
  Alcotest.(check int) "header + row, nothing wrapped" 4
    (List.length (String.split_on_char '\n' text) - 1);
  Alcotest.(check bool) "reloads equal" true
    (Exact.rel_equal r (Erm.Io.relation_of_string text))

let test_long_set_store () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eridb_io_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun file -> Sys.remove (Filename.concat dir file))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let r = wide_relation () in
      ignore (Store.Estore.create ~dir ~name:"wide" r);
      let t, _ = Store.Estore.open_store ~verify:true dir in
      Alcotest.(check bool) "store reopens equal" true
        (Exact.rel_equal r (Store.Estore.relation t)))

(* Rows written before sets were printed on one line can hold a newline
   and indentation inside a set; they must still parse. *)
let test_wrapped_cell_accepted () =
  let r = wide_relation () in
  let schema = Erm.Relation.schema r in
  let wrapped =
    String.concat ",\n "
      (List.init 19 (fun i -> Printf.sprintf "value_number_%02d" (i + 1)))
  in
  let row = Printf.sprintf "k1 | [{%s}^0.75; ~^0.25] | (1, 1)" wrapped in
  Alcotest.(check bool) "row holds a newline" true (String.contains row '\n');
  let t = Erm.Io.tuple_of_string schema row in
  Alcotest.(check bool) "same tuple" true
    (Exact.tuple (Erm.Relation.find r [ V.string "k1" ]) t)

(* --- linear cost ----------------------------------------------------- *)

let parse_words size =
  let r = G.relation (R.create 7) ~size (G.schema "lin") in
  let text = Erm.Io.to_string r in
  let before = Gc.minor_words () in
  ignore (Erm.Io.relation_of_string text);
  Gc.minor_words () -. before

(* A count, not a timing: 4x the tuples must cost well under 5x the
   minor-heap words (a loader that re-copies its row list each line is
   quadratic and reads about 9 here). *)
let test_linear_allocation () =
  let ratio = parse_words 4000 /. parse_words 1000 in
  if not (ratio < 5.0) then
    Alcotest.failf "4000/1000-tuple parse allocates %.2fx the words" ratio

(* --- codec properties ------------------------------------------------ *)

(* [size] tuples with an int cell, a cell over a [width]-value frame
   whose focal sets may span the whole frame, and a narrow cell. *)
let narrow = G.domain ~size:4 "narrow"

let codec_relation seed ~width ~size =
  let rng = R.create seed in
  let frame = wide_frame width in
  let schema =
    Erm.Schema.make ~name:"codec"
      ~key:[ Erm.Attr.definite "k" "string" ]
      ~nonkey:
        [ Erm.Attr.definite "n" "int";
          Erm.Attr.evidential "wide" frame;
          Erm.Attr.evidential "narrow" narrow ]
  in
  Erm.Relation.of_tuples schema
    (List.init size (fun i ->
         Erm.Etuple.make schema
           ~key:[ V.string (Printf.sprintf "key%d" i) ]
           ~cells:
             [ Erm.Etuple.Definite (V.int (R.int rng 1000 - 500));
               Erm.Etuple.Evidence
                 (G.evidence rng ~focals:4 ~max_focal_size:width frame);
               Erm.Etuple.Evidence (G.evidence rng narrow) ]
           ~tm:(G.support rng)))

let codec_arb =
  QCheck.(pair (int_range 0 1_000_000) (int_range 1 24))

(* The float tokens of a printed row: each mass (after '^', up to ';' or
   ']') in order, then sn and sp from the trailing "(sn, sp)". *)
let printed_floats row =
  let n = String.length row in
  let rec masses i acc =
    match String.index_from_opt row i '^' with
    | None -> List.rev acc
    | Some k ->
        let rec stop j =
          if j < n && row.[j] <> ';' && row.[j] <> ']' then stop (j + 1)
          else j
        in
        let j = stop (k + 1) in
        masses j (String.sub row (k + 1) (j - k - 1) :: acc)
  in
  let open_paren = String.rindex row '(' in
  let pair = String.sub row (open_paren + 1) (n - open_paren - 2) in
  masses 0 [] @ List.map String.trim (String.split_on_char ',' pair)

let expected_floats t =
  List.concat_map
    (function
      | Erm.Etuple.Definite _ -> []
      | Erm.Etuple.Evidence e -> List.map snd (Dst.Mass.F.focals e))
    (Erm.Etuple.cells t)
  @ [ Dst.Support.sn (Erm.Etuple.tm t); Dst.Support.sp (Erm.Etuple.tm t) ]
  |> List.map Exact.shortest

let prop_shortest_floats =
  QCheck.Test.make ~name:"every float prints as the shortest exact %.Ng"
    ~count:200 codec_arb (fun (seed, width) ->
      Erm.Relation.for_all
        (fun t ->
          printed_floats (Erm.Io.tuple_to_string t) = expected_floats t)
        (codec_relation seed ~width ~size:4))

let prop_roundtrip =
  QCheck.Test.make ~name:"relation_of_string (to_string r) = r, bit-exact"
    ~count:200 codec_arb (fun (seed, width) ->
      let r = codec_relation seed ~width ~size:4 in
      let text = Erm.Io.to_string r in
      count_lines "tuple " text = 4
      && Exact.rel_equal r (Erm.Io.relation_of_string text))

let () =
  Alcotest.run "io"
    [ ( "parse",
        [ Alcotest.test_case "basics" `Quick test_parse_basics;
          Alcotest.test_case "multiple relations" `Quick
            test_multiple_relations;
          Alcotest.test_case "error line numbers" `Quick test_error_lines;
          Alcotest.test_case "mass sum printed to 12 digits" `Quick
            test_mass_sum_message;
          Alcotest.test_case "bad quoted literals are Io_errors" `Quick
            test_bad_literals;
          Alcotest.test_case "CWA enforced on load" `Quick test_cwa_on_load ]
      );
      ( "roundtrip",
        [ Alcotest.test_case "sample" `Quick test_roundtrip_sample;
          Alcotest.test_case "paper tables" `Quick test_roundtrip_paper_tables;
          Alcotest.test_case "load/save files" `Quick test_load_save;
          Alcotest.test_case "save replaces the file whole" `Quick
            test_save_replaces_whole;
          Alcotest.test_case "value kinds" `Quick test_value_kinds_roundtrip;
          Alcotest.test_case "long focal set prints on one line" `Quick
            test_long_set_one_line;
          Alcotest.test_case "long focal set through the store" `Quick
            test_long_set_store;
          Alcotest.test_case "cell with an embedded newline parses" `Quick
            test_wrapped_cell_accepted ] );
      ( "codec",
        [ Alcotest.test_case "parse allocation is linear" `Quick
            test_linear_allocation;
          QCheck_alcotest.to_alcotest prop_shortest_floats;
          QCheck_alcotest.to_alcotest prop_roundtrip ] );
      ( "csv",
        [ Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "paper data" `Quick test_csv_roundtrip_paper;
          Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "errors" `Quick test_csv_errors ] ) ]
