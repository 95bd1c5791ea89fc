(* The static analyzer: plan checker (Analysis.Check), .erd linter
   (Analysis.Erd_lint) and the support-interval domain (Analysis.Interval).

   Three layers:
   - unit: each diagnostic code fires on a minimal trigger and stays
     silent on the clean sample;
   - agreement (qcheck): serialized generated relations lint clean and
     load; textually mutated corpora both lint dirty and fail to load,
     and a corrupted evidence cell is a lint error exactly when it is a
     load error — the linter and Erm.Io agree on validity in both
     directions;
   - soundness (qcheck): a plan the checker proves statically empty
     evaluates to the empty relation. *)

module R = Workload.Rng
module G = Workload.Gen
module D = Analysis.Diagnostic

let prop ?(count = 300) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let seed_arb = QCheck.int_range 0 1_000_000

let sample =
  {|relation ra
key rname : string
attr street : string
attr bldg-no : int
attr speciality : evidence {am, ca, hu, it, mu, si, ta}
tuple garden | univ.ave. | 2011 | [si^0.5; hu^0.25; ~^0.25] | (1, 1)
tuple wok | wash.ave. | 600 | [si^1] | (1, 1)

relation rb
key rname : string
attr street : string
attr bldg-no : int
attr speciality : evidence {am, ca, hu, it, mu, si, ta}
tuple wok | wash.ave. | 600 | [si^0.5; ~^0.5] | (0.8, 1)

relation rc
key rname : string
attr city : string
tuple wok | sf | (1, 1)

relation hollow
key rname : string
attr street : string
|}

let env =
  List.map
    (fun r -> (Erm.Schema.name (Erm.Relation.schema r), r))
    (Erm.Io.relations_of_string sample)

let codes diags = List.map (fun d -> d.D.code) diags

let check q = Analysis.Check.check_string env q

let assert_code q code =
  let found = codes (check q) in
  Alcotest.(check bool)
    (Printf.sprintf "%s on %S (got %s)" code q (String.concat "," found))
    true (List.mem code found)

let assert_clean q =
  let diags = List.filter D.is_error (check q) in
  Alcotest.(check (list string))
    (Printf.sprintf "no errors on %S" q)
    [] (codes diags)

(* --- plan checker: one trigger per code ----------------------------- *)

let test_check_codes () =
  assert_code "SELECT" "Q000";
  assert_code "SELECT rname FROM nosuch" "Q001";
  assert_code "SELECT rname FROM ra WHERE bogus IS {am}" "Q002";
  assert_code "SELECT rname FROM ra WHERE street > bldg-no" "Q003";
  assert_code "SELECT rname FROM ra WHERE street = bldg-no" "Q004";
  assert_code "SELECT rname FROM ra WHERE speciality IS {zz}" "Q005";
  assert_code "SELECT rname FROM ra WHERE speciality IS {am, ca, hu, it, mu, si, ta}"
    "Q006";
  assert_code "SELECT rname FROM ra WITH SN > 0.5 AND SN < 0.2" "Q007";
  assert_code "SELECT street FROM ra" "Q008";
  assert_code "SELECT rname FROM ra WHERE street = bldg-no" "Q010";
  assert_code "ra JOIN (rb PREFIX r_) ON street = r_bldg-no" "Q011";
  assert_code "ra UNION rc" "Q012";
  assert_code "ra JOIN rb ON rname = rname" "Q013";
  assert_code "SELECT rname FROM ra WHERE speciality = [am^2]" "Q015";
  assert_code "SELECT rname FROM ra WITH SN > 1.5" "Q016";
  assert_code "SELECT rname FROM ra LIMIT 0" "Q017";
  assert_code "SELECT rname FROM hollow" "Q018"

let test_check_clean () =
  assert_clean "SELECT rname, speciality FROM ra WHERE speciality IS {si} WITH SN > 0.5";
  assert_clean "ra UNION rb";
  assert_clean "ra JOIN (rb PREFIX r_) ON rname = r_rname";
  assert_clean "SELECT rname FROM ra WHERE bldg-no > 500 ORDER BY SN DESC LIMIT 3"

(* Error-level findings are what strict mode refuses a query with. *)
let test_guard () =
  let errs = Analysis.Check.errors env in
  Alcotest.(check bool)
    "statically-empty IS is rejected" true
    (errs (Query.Parser.parse "SELECT rname FROM ra WHERE speciality IS {zz}")
    <> []);
  Alcotest.(check (list string))
    "clean query passes" []
    (errs (Query.Parser.parse "SELECT rname FROM ra"))

(* --- the interval domain -------------------------------------------- *)

let test_intervals () =
  let open Analysis.Interval in
  Alcotest.(check bool) "top is satisfiable" false (is_empty top);
  Alcotest.(check bool) "impossible is never positive" true
    (never_positive impossible);
  Alcotest.(check bool) "mul by impossible is never positive" true
    (never_positive (mul top impossible));
  Alcotest.(check bool) "disj keeps possibility" false
    (never_positive (disj impossible certain));
  Alcotest.(check bool) "neg certain is impossible" true
    (never_positive (neg certain));
  Alcotest.(check bool) "sn>0.5 && sn<0.2 infeasible" true
    (constrain_threshold
       Erm.Threshold.(sn_gt 0.5 &&& Cmp (Sn, Lt, 0.2))
       top
    = None);
  Alcotest.(check bool) "sn>0.5 feasible on top" true
    (constrain_threshold (Erm.Threshold.sn_gt 0.5) top <> None);
  Alcotest.(check bool) "sn>0.5 infeasible after select sp<=0.3" true
    (constrain_threshold (Erm.Threshold.sn_gt 0.5)
       (make ~sn_lo:0.0 ~sn_hi:0.3 ~sp_lo:0.0 ~sp_hi:0.3)
    = None)

(* --- linter: one trigger per code ----------------------------------- *)

let lint_codes s = codes (Analysis.Erd_lint.lint_string s)

let assert_lint s code =
  let found = lint_codes s in
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %s)" code (String.concat "," found))
    true (List.mem code found)

let rel_wrap tuple_line =
  Printf.sprintf
    "relation r\nkey name : string\nattr rating : evidence {a, b}\n%s\n"
    tuple_line

let test_lint_codes () =
  assert_lint "tuple x | y | (1, 1)\n" "E001";
  assert_lint "relation r\nkey grade : evidence {a, b}\n" "E003";
  assert_lint "relation r\nkey n : string\nattr n : int\n" "E004";
  assert_lint "relation r\nkey n : decimal\n" "E005";
  assert_lint (rel_wrap "tuple x | [a^1]") "E006";
  assert_lint
    "relation r\nkey n : int\ntuple twelve | (1, 1)\n" "E007";
  assert_lint (rel_wrap "tuple x | [a^0.5 b^0.5] | (1, 1)") "E008";
  assert_lint (rel_wrap "tuple x | [a^0.7; b^0.5] | (1, 1)") "E009";
  assert_lint (rel_wrap "tuple x | [{}^0.5; a^0.5] | (1, 1)") "E010";
  assert_lint (rel_wrap "tuple x | [a^1.5; b^-0.5] | (1, 1)") "E011";
  assert_lint (rel_wrap "tuple x | [zz^1] | (1, 1)") "E012";
  assert_lint
    (rel_wrap "tuple x | [a^1] | (1, 1)\ntuple x | [b^1] | (1, 1)")
    "E013";
  assert_lint (rel_wrap "tuple x | [a^1] | (1 1)") "E014";
  assert_lint (rel_wrap "tuple x | [a^1] | (0.9, 0.4)") "E015";
  assert_lint (rel_wrap "tuple x | [a^1] | (0, 1)") "E016";
  assert_lint (rel_wrap "tuple x | [a^0; b^1] | (1, 1)") "E019";
  assert_lint (rel_wrap "tuple x | [a^0.5; a^0.5] | (1, 1)") "E020";
  Alcotest.(check (list string))
    "clean sample lints clean" [] (lint_codes sample);
  Alcotest.(check int) "error exit code" 2
    (Analysis.Report.exit_code (Analysis.Erd_lint.lint_string (rel_wrap "tuple x | [zz^1] | (1, 1)")));
  Alcotest.(check int) "clean exit code" 0
    (Analysis.Report.exit_code (Analysis.Erd_lint.lint_string sample))

let test_json () =
  let diags =
    Analysis.Erd_lint.lint_string ~file:"f.erd" (rel_wrap "tuple x | [zz^1] | (1, 1)")
  in
  let json = Analysis.Report.to_json diags in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json mentions %s" needle)
        true
        (let n = String.length needle and h = String.length json in
         let rec go i =
           i + n <= h && (String.sub json i n = needle || go (i + 1))
         in
         go 0))
    [ "\"code\": \"E012\""; "\"severity\": \"error\""; "\"file\": \"f.erd\"" ];
  Alcotest.(check string) "empty list is []" "[]" (Analysis.Report.to_json [])

(* --- agreement: linter vs loader (qcheck) --------------------------- *)

let gen_relation seed =
  let rng = R.create seed in
  G.relation rng ~size:(1 + R.int rng 8) (G.schema "g")

let lint_accepts_iff_loads =
  prop "lint-clean serialized relations load" seed_arb (fun seed ->
      let text = Erm.Io.to_string (gen_relation seed) in
      let errors = List.filter D.is_error (Analysis.Erd_lint.lint_string text) in
      let loads =
        match Erm.Io.relations_of_string text with
        | _ -> true
        | exception _ -> false
      in
      errors = [] && loads)

(* Seeded textual corruptions, each violating one invariant the loader
   also enforces: duplicated key row, inverted membership pair, dropped
   field. Lint must go dirty and load must raise — on the same input. *)
let mutate seed text =
  let lines = String.split_on_char '\n' text in
  let tuples, rest =
    List.partition
      (fun l -> String.length l >= 6 && String.sub l 0 6 = "tuple ")
      lines
  in
  match tuples with
  | [] -> None
  | first :: _ ->
      let broken =
        match seed mod 3 with
        | 0 -> tuples @ [ first ]
        | 1 -> (
            match String.rindex_opt first '(' with
            | Some i -> (String.sub first 0 i ^ "(0.9, 0.4)") :: List.tl tuples
            | None -> tuples)
        | _ -> (
            match String.rindex_opt first '|' with
            | Some i -> String.sub first 0 i :: List.tl tuples
            | None -> tuples)
      in
      Some (String.concat "\n" (List.filter (fun l -> l <> "") rest @ broken))

let mutations_rejected_twice =
  prop "mutated corpora lint dirty and fail to load" seed_arb (fun seed ->
      match mutate seed (Erm.Io.to_string (gen_relation seed)) with
      | None -> true
      | Some text ->
          let lint_dirty =
            List.exists D.is_error (Analysis.Erd_lint.lint_string text)
          in
          let load_fails =
            match Erm.Io.relations_of_string text with
            | _ -> false
            | exception _ -> true
          in
          lint_dirty && load_fails)

(* Corruptions of the first evidence cell of the first tuple row, one
   per seed: a bad escape in a quoted literal, a [{}] focal, an
   unterminated [\[] and a [1/0] mass are load errors; a duplicated
   focal of zero mass only draws warnings, and the file still loads. *)
let corrupt_evidence seed text =
  let corrupt row =
    let i = String.index row '[' + 1 in
    let before = String.sub row 0 i
    and after = String.sub row i (String.length row - i) in
    match seed mod 5 with
    | 0 -> before ^ "\"a\\q\"^0; " ^ after
    | 1 -> before ^ "{}^0; " ^ after
    | 2 ->
        let j = String.index after ']' in
        before ^ String.sub after 0 j
        ^ String.sub after (j + 1) (String.length after - j - 1)
    | 3 -> before ^ "~^1/0; " ^ after
    | _ -> before ^ "~^0; ~^0; " ^ after
  in
  let rec go = function
    | [] -> None
    | l :: rest when String.length l > 6 && String.sub l 0 6 = "tuple " ->
        Some (corrupt l :: rest)
    | l :: rest -> Option.map (List.cons l) (go rest)
  in
  Option.map (String.concat "\n") (go (String.split_on_char '\n' text))

(* Lint reports an error exactly when the loader raises Io_error, and
   neither raises anything else. *)
let lint_errors_iff_load_fails =
  prop "lint errors iff load raises Io_error on corrupted cells" seed_arb
    (fun seed ->
      match corrupt_evidence seed (Erm.Io.to_string (gen_relation seed)) with
      | None -> true
      | Some text ->
          let lint_dirty =
            List.exists D.is_error (Analysis.Erd_lint.lint_string text)
          in
          let load_fails =
            match Erm.Io.relations_of_string text with
            | _ -> false
            | exception Erm.Io.Io_error _ -> true
          in
          lint_dirty = load_fails
          && (seed mod 5 = 4) <> load_fails)

(* --- soundness: statically empty ⇒ evaluates empty (qcheck) --------- *)

(* Queries with a taste for dead atoms: out-of-frame IS sets and
   contradictory thresholds alongside live ones. *)
let gen_dead_query rng =
  let dead_set = [ Dst.Value.string (Printf.sprintf "zz%d" (R.int rng 4)) ] in
  let live_set =
    List.init (1 + R.int rng 2) (fun _ ->
        Dst.Value.string (Printf.sprintf "v%d" (R.int rng 8)))
  in
  let atom () =
    match R.int rng 4 with
    | 0 -> Query.Ast.Is ("e0", dead_set)
    | 1 -> Query.Ast.Is ("e0", live_set)
    | 2 -> Query.Ast.Is ("e1", live_set)
    | _ ->
        Query.Ast.Cmp
          ( Erm.Predicate.Eq,
            Query.Ast.Attr "k",
            Query.Ast.Scalar (Dst.Value.string (Printf.sprintf "key%d" (R.int rng 6))) )
  in
  let pred =
    match R.int rng 4 with
    | 0 -> atom ()
    | 1 -> Query.Ast.And (atom (), atom ())
    | 2 -> Query.Ast.Or (atom (), atom ())
    | _ -> Query.Ast.Not (Query.Ast.True)
  in
  let threshold =
    match R.int rng 4 with
    | 0 -> Erm.Threshold.always
    | 1 -> Erm.Threshold.sn_gt (R.float rng 1.0)
    | 2 -> Erm.Threshold.(sn_gt 0.6 &&& Cmp (Sn, Lt, 0.2))
    | _ -> Erm.Threshold.sp_ge (R.float rng 1.0)
  in
  Query.Ast.Select
    { cols = None;
      from = Query.Ast.Rel (if R.bool rng then "ga" else "gb");
      where = pred;
      threshold }

let static_empty_sound =
  prop "statically-empty plans evaluate to the empty relation" seed_arb
    (fun seed ->
      let rng = R.create seed in
      let schema = G.schema "g" in
      let ga, gb = G.source_pair rng ~size:8 ~overlap:0.5 schema in
      let genv = [ ("ga", ga); ("gb", gb) ] in
      let q = gen_dead_query rng in
      let r = Analysis.Check.analyze genv q in
      if not r.Analysis.Check.empty then true
      else
        match Query.Eval.eval genv q with
        | rel -> Erm.Relation.is_empty rel
        | exception _ -> true)

(* --- the check catalog ---------------------------------------------- *)

module C = Analysis.Catalog
module K = Analysis.Checkdef

let test_catalog_registry () =
  let codes_of cs = List.map (fun c -> c.K.code) cs in
  let all = codes_of C.checks in
  Alcotest.(check bool) "codes are unique" true
    (List.sort_uniq String.compare all = List.sort String.compare all);
  (* Every diagnostic code the two legacy front ends emit is registered,
     and the S-family is present. *)
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Printf.sprintf "%s registered" code)
        true (C.find code <> None))
    [ "E001"; "E009"; "E017"; "E099"; "Q000"; "Q008"; "Q018"; "S001"; "S010" ];
  Alcotest.(check (option int)) "E016 priority" (Some 3)
    (Option.map K.priority_rank (C.priority_for "E016"));
  Alcotest.(check (option int)) "unknown code has no priority" None
    (Option.map K.priority_rank (C.priority_for "X123"));
  (* Severity derivation is the documented table. *)
  Alcotest.(check bool) "Blocker is an error" true
    (K.severity_of_priority K.Blocker = D.Error);
  Alcotest.(check bool) "Low is a warning" true
    (K.severity_of_priority K.Low = D.Warning);
  (* Round-trip the priority spellings, case-insensitively. *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (K.priority_to_string p ^ " round-trips")
        true
        (K.priority_of_string
           (String.lowercase_ascii (K.priority_to_string p))
        = Some p))
    [ K.Blocker; K.High; K.Medium; K.Low; K.Info ]

let test_catalog_export () =
  let tsv = C.to_tsv () in
  let lines = String.split_on_char '\n' tsv in
  Alcotest.(check string) "TSV header"
    "Display Name\tPriority\tDescription" (List.hd lines);
  Alcotest.(check int) "one row per check (plus header and trailing \\n)"
    (List.length C.checks + 2)
    (List.length lines);
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "TSV names S001" true
    (contains "S001 Dangling_Key_Reference\tHigh" tsv);
  let json = C.to_json () in
  Alcotest.(check bool) "JSON names E012" true
    (contains {|"code": "E012", "name": "Value_Outside_Domain"|} json);
  Alcotest.(check bool) "JSON spells scope" true
    (contains {|"scope": "store"|} json)

(* --- store sweeps ---------------------------------------------------- *)

(* Fixture root relative to cwd: the dune test runner runs from test/,
   `dune exec test/test_analysis.exe` (CI's sweep job) from the repo
   root. *)
let fixture_dir =
  if Sys.file_exists "fixtures/sweep/bad_catalog" then "fixtures/sweep/bad_catalog"
  else "test/fixtures/sweep/bad_catalog"

let sweep_env files =
  List.concat_map
    (fun f ->
      List.map
        (fun r -> (Erm.Schema.name (Erm.Relation.schema r), r))
        (Erm.Io.load (fixture_dir ^ "/" ^ f)))
    files

let sweep_codes ?thresholds env =
  codes (Analysis.Sweep.run (Analysis.Sweep.subject ?thresholds ~telemetry:false env))

let test_sweep_bad_catalog () =
  let env = sweep_env [ "hotels.erd"; "bookings.erd"; "empty_rel.erd" ] in
  let found = sweep_codes env in
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Printf.sprintf "%s fires on the bad catalog (got %s)" code
           (String.concat "," found))
        true (List.mem code found))
    [ "S001"; "S002"; "S006"; "S007"; "S010" ];
  (* Each planted defect is singular: exactly one dangling reference,
     one dormant value, one clone group. *)
  let count c = List.length (List.filter (String.equal c) found) in
  Alcotest.(check int) "one dangling reference" 1 (count "S001");
  Alcotest.(check int) "one dormant domain value" 1 (count "S002");
  Alcotest.(check int) "two duplicate-entity groups" 2 (count "S006");
  Alcotest.(check int) "one clone group" 1 (count "S007")

let test_sweep_clean_env () =
  (* The paper's restaurant sample: referentially irrelevant (no shared
     attribute names across keys), live evidence everywhere. *)
  Alcotest.(check (list string))
    "clean sample relations sweep clean (bar the declared-empty one)"
    [ "S010" ] (sweep_codes env)

let test_sweep_cwa () =
  let schema =
    Erm.Schema.make ~name:"u"
      ~key:[ Erm.Attr.definite "k" "string" ]
      ~nonkey:[ Erm.Attr.definite "v" "string" ]
  in
  let tuple sn sp key =
    Erm.Etuple.make schema
      ~key:[ Dst.Value.string key ]
      ~cells:[ Erm.Etuple.Definite (Dst.Value.string "x") ]
      ~tm:(Dst.Support.make ~sn ~sp)
  in
  let bad =
    Erm.Relation.of_tuples_unchecked schema [ tuple 0.0 0.4 "dead" ]
  in
  Alcotest.(check bool) "S003 fires on an sn = 0 tuple" true
    (List.mem "S003" (sweep_codes [ ("u", bad) ]));
  let ok = Erm.Relation.of_tuples schema [ tuple 0.5 1.0 "live" ] in
  Alcotest.(check bool) "S003 silent on an admissible tuple" false
    (List.mem "S003" (sweep_codes [ ("u", ok) ]))

(* S008/S009 read the committed segment history; drive them through a
   hand-built store_meta rather than disk. *)
let test_sweep_segments () =
  let upsert d = Store.Segment.Upsert { digest = d; row = "row" } in
  let delete d = Store.Segment.Delete { digest = d } in
  let meta segs =
    { K.store_name = "s";
      store_dir = "dir";
      store_version = 1;
      store_segments = segs }
  in
  let subject segs relations =
    { K.relations;
      store = Some (meta segs);
      rollups = [];
      merges = [];
      thresholds = K.default_thresholds }
  in
  let run s = codes (Analysis.Sweep.run s) in
  let dangling =
    subject [ ("000001.seg", [ upsert "aa"; delete "bb" ]) ] []
  in
  Alcotest.(check bool) "S008 fires on a never-upserted delete" true
    (List.mem "S008" (run dangling));
  let ordered =
    subject
      [ ("000001.seg", [ upsert "aa" ]); ("000002.seg", [ delete "aa" ]) ]
      []
  in
  Alcotest.(check bool) "S008 silent when the upsert precedes" false
    (List.mem "S008" (run ordered));
  let bloated =
    subject
      [ ("000001.seg",
         [ upsert "aa"; upsert "aa"; upsert "aa"; upsert "bb"; delete "bb" ])
      ]
      []
  in
  Alcotest.(check bool) "S009 fires on 4 dead vs 1 live" true
    (List.mem "S009" (run bloated));
  let fresh =
    subject [ ("000001.seg", [ upsert "aa"; upsert "bb" ]) ] []
  in
  Alcotest.(check bool) "S009 silent on an all-live history" false
    (List.mem "S009" (run fresh))

(* S004/S005 come from the ambient κ telemetry a real absorption
   records. *)
let test_sweep_telemetry () =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Obs.Provenance.enable ();
  Obs.Provenance.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.disable ();
      Obs.Provenance.reset ();
      Obs.Provenance.disable ())
    (fun () ->
      (* Three heavily conflicting evidential cells (κ ≈ 0.96 each)
         against one agreeing membership combine (κ = 0) keep the
         source's mean κ well above the 0.6 disagreement threshold. *)
      let load text = List.hd (Erm.Io.relations_of_string text) in
      let base =
        load
          {|relation base
key k : string
attr grade : evidence {a, b}
attr food : evidence {a, b}
attr view : evidence {a, b}
tuple x | [a^0.98; ~^0.02] | [a^0.98; ~^0.02] | [a^0.98; ~^0.02] | (1, 1)
|}
      and noisy =
        load
          {|relation noisy
key k : string
attr grade : evidence {a, b}
attr food : evidence {a, b}
attr view : evidence {a, b}
tuple x | [b^0.98; ~^0.02] | [b^0.98; ~^0.02] | [b^0.98; ~^0.02] | (1, 1)
|}
      in
      let merged, _, _ =
        Integration.Multi.absorb_delta ~into:base
          { Integration.Multi.source_name = "noisy";
            source_relation = noisy }
      in
      let found =
        codes (Analysis.Sweep.run (Analysis.Sweep.subject [ ("base", merged) ]))
      in
      Alcotest.(check bool)
        (Printf.sprintf "S004 fires on the conflicting source (got %s)"
           (String.concat "," found))
        true (List.mem "S004" found);
      Alcotest.(check bool) "S005 fires on the κ = 0.96 merges" true
        (List.mem "S005" found);
      let rollups = Analysis.Sweep.kappa_rollups () in
      Alcotest.(check int) "one source rolled up" 1 (List.length rollups);
      let r = List.hd rollups in
      Alcotest.(check string) "rollup names the source" "noisy"
        r.K.rollup_source)

let test_sweep_report_order () =
  let env = sweep_env [ "hotels.erd"; "bookings.erd"; "empty_rel.erd" ] in
  let diags =
    Analysis.Sweep.run (Analysis.Sweep.subject ~telemetry:false env)
  in
  let rendered = Analysis.Report.to_json diags in
  (* Priority order in the rendered report: High before Medium before
     Low before Info. *)
  let pos needle =
    let n = String.length needle and h = String.length rendered in
    let rec go i =
      if i + n > h then -1
      else if String.sub rendered i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  let s001 = pos {|"code": "S001"|}
  and s006 = pos {|"code": "S006"|}
  and s002 = pos {|"code": "S002"|}
  and s010 = pos {|"code": "S010"|} in
  Alcotest.(check bool) "all four codes rendered" true
    (s001 >= 0 && s006 >= 0 && s002 >= 0 && s010 >= 0);
  Alcotest.(check bool) "High < Medium < Low < Info positions" true
    (s001 < s006 && s006 < s002 && s002 < s010);
  Alcotest.(check bool) "JSON carries the priority field" true
    (pos {|"priority": "High"|} >= 0)

(* Metrics the sweep itself records. *)
let test_sweep_metrics () =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.disable ())
    (fun () ->
      let env = sweep_env [ "hotels.erd"; "bookings.erd" ] in
      ignore (Analysis.Sweep.run (Analysis.Sweep.subject ~telemetry:false env));
      Alcotest.(check int) "analysis.sweep.runs" 1
        (Obs.Metrics.counter "analysis.sweep.runs");
      Alcotest.(check int) "analysis.sweep.relations" 2
        (Obs.Metrics.counter "analysis.sweep.relations");
      Alcotest.(check int) "analysis.sweep.tuples" 7
        (Obs.Metrics.counter "analysis.sweep.tuples");
      Alcotest.(check bool) "analysis.sweep.findings > 0" true
        (Obs.Metrics.counter "analysis.sweep.findings" > 0))

(* Clean generated workloads carry no Blocker/High pathologies: the
   generator keeps Ω mass ≥ its floor (no dormant evidence beyond Low),
   satisfies CWA, and never fabricates cross-relation references. *)
let sweep_clean_generated =
  prop "generated workload stores sweep without Blocker/High findings"
    seed_arb (fun seed ->
      let rng = R.create seed in
      let schema = G.schema "g" in
      let ga, gb = G.source_pair rng ~size:(1 + R.int rng 12) ~overlap:0.5 schema in
      let diags =
        Analysis.Sweep.run
          (Analysis.Sweep.subject ~telemetry:false
             [ ("ga", ga); ("gb", gb) ])
      in
      List.for_all
        (fun d ->
          match C.priority_for d.D.code with
          | Some p -> K.priority_rank p < K.priority_rank K.High
          | None -> false)
        diags)

(* The binaries' failure boundary: every library failure a binary can
   reach classifies to a message, positions render compiler style with
   unknown parts left out, and anything else stays an exception. *)
let test_boundary () =
  let module B = Analysis.Boundary in
  let frame = Dst.Domain.of_strings "e" [ "a" ] in
  let render e = Option.map B.to_string (B.classify e) in
  let check name expected e =
    Alcotest.(check (option string)) name expected (render e)
  in
  check "Sys_error" (Some "f.csv: No such file or directory")
    (Sys_error "f.csv: No such file or directory");
  check "Unix_error" (Some "f/s: Not a directory")
    (Unix.Unix_error (Unix.ENOTDIR, "mkdir", "f/s"));
  check "Io_error" (Some "f.erd:5:11: bad")
    (Erm.Io.Io_error { file = Some "f.erd"; line = 5; col = 11; message = "bad" });
  check "parse" (Some "parse error: p") (Query.Parser.Parse_error "p");
  check "store" (Some "no store at d")
    (Store.Recovery.Store_error (Store.Recovery.No_store { dir = "d" }));
  check "fault" (Some "store i/o fault: write(f): EIO")
    (Store.Io.Fault { op = "write"; path = "f"; code = Store.Io.Eio });
  check "total conflict"
    (Some "total conflict (kappa = 1) while combining evidence")
    Dst.Mass.F.Total_conflict;
  List.iter
    (fun e ->
      Alcotest.(check bool) (Printexc.to_string e) true (B.classify e <> None))
    [ Query.Eval.Eval_error "m";
      Erm.Ops.Incompatible_schemas "m"; Erm.Etuple.Tuple_error "m";
      Erm.Relation.Relation_error "m";
      Erm.Relation.Duplicate_key [ Dst.Value.String "k" ];
      Erm.Schema.Schema_error "m"; Dst.Mass.F.Invalid_mass "m";
      Dst.Mass.F.Quarantined_cell 0.9;
      Dst.Mass.F.Frame_mismatch (frame, frame) ];
  List.iter
    (fun e -> check (Printexc.to_string e) None e)
    [ Not_found; Invalid_argument "x"; Failure "x"; Stack_overflow ];
  let at file line col = B.to_string { B.file; line; col; message = "m" } in
  Alcotest.(check (list string)) "unknown parts are left out"
    [ "f:5: m"; "5:11: m"; "f: m"; "m" ]
    [ at (Some "f") 5 0; at None 5 11; at (Some "f") 0 7; at None 0 0 ];
  Alcotest.check_raises "handle re-raises a bug" Not_found (fun () ->
      B.handle (fun _ -> ()) (fun () -> raise Not_found));
  Alcotest.(check string) "handle classifies a failure" "parse error: p"
    (B.handle B.to_string (fun () -> raise (Query.Parser.Parse_error "p")))

let () =
  Alcotest.run "analysis"
    [ ( "check",
        [ Alcotest.test_case "diagnostic codes" `Quick test_check_codes;
          Alcotest.test_case "clean queries" `Quick test_check_clean;
          Alcotest.test_case "execution guard" `Quick test_guard;
          Alcotest.test_case "interval domain" `Quick test_intervals ] );
      ( "erd-lint",
        [ Alcotest.test_case "diagnostic codes" `Quick test_lint_codes;
          Alcotest.test_case "json rendering" `Quick test_json ] );
      ( "catalog",
        [ Alcotest.test_case "registry" `Quick test_catalog_registry;
          Alcotest.test_case "tsv/json export" `Quick test_catalog_export ] );
      ( "boundary",
        [ Alcotest.test_case "one classifier" `Quick test_boundary ] );
      ( "sweep",
        [ Alcotest.test_case "bad catalog fires" `Quick test_sweep_bad_catalog;
          Alcotest.test_case "clean env is quiet" `Quick test_sweep_clean_env;
          Alcotest.test_case "CWA violations" `Quick test_sweep_cwa;
          Alcotest.test_case "segment history" `Quick test_sweep_segments;
          Alcotest.test_case "κ telemetry" `Quick test_sweep_telemetry;
          Alcotest.test_case "report order" `Quick test_sweep_report_order;
          Alcotest.test_case "sweep metrics" `Quick test_sweep_metrics ] );
      ( "properties",
        [ lint_accepts_iff_loads; mutations_rejected_twice;
          lint_errors_iff_load_fails;
          static_empty_sound; sweep_clean_generated ] ) ]
