(* Query language: lexer tokens, parser ASTs and error reporting,
   evaluation against the paper data (checked against direct operator
   calls), and the optimizer's rewrites and soundness. *)

module L = Query.Lexer
module Ast = Query.Ast
module T = Erm.Threshold

let env = [ ("ra", Paperdata.r_a); ("rb", Paperdata.r_b) ]

let rel_eq what expected actual =
  Alcotest.(check bool) what true (Erm.Relation.equal expected actual)

(* --- Lexer ---------------------------------------------------------- *)

let token = Alcotest.testable (fun ppf t ->
    Format.pp_print_string ppf (L.token_to_string t))
    (fun a b -> a = b)

let test_lexer_basics () =
  Alcotest.(check (list token))
    "keywords and symbols"
    [ L.SELECT; L.STAR; L.FROM; L.IDENT "ra"; L.WHERE; L.IDENT "x"; L.IS;
      L.LBRACE; L.IDENT "si"; L.COMMA; L.IDENT "hu"; L.RBRACE; L.WITH; L.SN;
      L.GT; L.FLOAT 0.5 ]
    (L.tokenize "SELECT * FROM ra WHERE x IS {si, hu} WITH SN > 0.5");
  Alcotest.(check (list token))
    "keywords are case-insensitive"
    [ L.SELECT; L.FROM; L.UNION; L.JOIN ]
    (L.tokenize "select FROM Union jOiN");
  Alcotest.(check (list token))
    "comparison operators"
    [ L.EQ; L.NE; L.LT; L.LE; L.GT; L.GE ]
    (L.tokenize "= <> < <= > >=");
  Alcotest.(check (list token))
    "numbers and strings"
    [ L.INT 42; L.FLOAT 1.5; L.INT (-7); L.STRING "hi there" ]
    (L.tokenize "42 1.5 -7 \"hi there\"");
  Alcotest.(check (list token))
    "evidence literal is one token"
    [ L.IDENT "x"; L.EQ; L.EVIDENCE "[si^0.5; ~^0.5]" ]
    (L.tokenize "x = [si^0.5; ~^0.5]");
  Alcotest.(check (list token))
    "identifiers may contain dashes and dots"
    [ L.IDENT "best-dish"; L.IDENT "univ.ave." ]
    (L.tokenize "best-dish univ.ave.")

let test_lexer_errors () =
  let lex_error input =
    Alcotest.(check bool)
      ("rejects " ^ input)
      true
      (match L.tokenize input with
      | _ -> false
      | exception L.Lex_error _ -> true)
  in
  lex_error "\"unterminated";
  lex_error "[unterminated evidence";
  lex_error "§"

(* --- Parser --------------------------------------------------------- *)

let parses input =
  match Query.Parser.parse input with
  | q -> q
  | exception Query.Parser.Parse_error m ->
      Alcotest.failf "should parse %s: %s" input m

let test_parser_shapes () =
  (match parses "ra" with
  | Ast.Rel "ra" -> ()
  | q -> Alcotest.failf "bare relation: %s" (Ast.to_string q));
  (match parses "ra UNION rb" with
  | Ast.Union (Ast.Rel "ra", Ast.Rel "rb") -> ()
  | q -> Alcotest.failf "union: %s" (Ast.to_string q));
  (match parses "SELECT a, b FROM ra" with
  | Ast.Select { cols = Some [ "a"; "b" ]; from = Ast.Rel "ra";
                 where = Ast.True; threshold = T.Always } -> ()
  | q -> Alcotest.failf "select: %s" (Ast.to_string q));
  (match parses "SELECT * FROM ra WHERE x IS {a} WITH SN > 0.5 AND SP <= 0.9" with
  | Ast.Select { cols = None; where = Ast.Is ("x", [ _ ]);
                 threshold = T.Both (T.Cmp (T.Sn, T.Gt, _), T.Cmp (T.Sp, T.Le, _));
                 _ } -> ()
  | q -> Alcotest.failf "threshold: %s" (Ast.to_string q));
  (match parses "ra JOIN rb ON a = b" with
  | Ast.Join { on = Ast.Cmp (Erm.Predicate.Eq, Ast.Attr "a", Ast.Attr "b"); _ }
    -> ()
  | q -> Alcotest.failf "join: %s" (Ast.to_string q));
  (match parses "ra TIMES rb" with
  | Ast.Product (Ast.Rel "ra", Ast.Rel "rb") -> ()
  | q -> Alcotest.failf "product: %s" (Ast.to_string q));
  (match parses "SELECT * FROM (ra UNION rb)" with
  | Ast.Select { from = Ast.Union _; _ } -> ()
  | q -> Alcotest.failf "parenthesized: %s" (Ast.to_string q))

let test_parser_predicates () =
  (match Query.Parser.parse_pred "x IS {a, b} AND NOT y = 3 OR TRUE" with
  | Ast.Or (Ast.And (Ast.Is _, Ast.Not (Ast.Cmp _)), Ast.True) -> ()
  | p -> Alcotest.failf "precedence: %s" (Format.asprintf "%a" Ast.pp_pred p));
  (match Query.Parser.parse_pred "x = [v^1]" with
  | Ast.Cmp (Erm.Predicate.Eq, Ast.Attr "x", Ast.Evidence_lit "[v^1]") -> ()
  | _ -> Alcotest.fail "evidence literal operand");
  match Query.Parser.parse_pred "{1, 2} <= x" with
  | Ast.Cmp (Erm.Predicate.Le, Ast.Set_lit [ _; _ ], Ast.Attr "x") -> ()
  | _ -> Alcotest.fail "set literal operand"

let test_parser_errors () =
  let parse_error input =
    Alcotest.(check bool)
      ("rejects " ^ input)
      true
      (match Query.Parser.parse input with
      | _ -> false
      | exception Query.Parser.Parse_error _ -> true)
  in
  List.iter parse_error
    [ "SELECT"; "SELECT * FROM"; "SELECT FROM ra"; "ra UNION"; "ra JOIN rb";
      "ra JOIN rb ON"; "SELECT * FROM ra WHERE"; "SELECT * FROM ra WITH SN";
      "SELECT * FROM ra WITH SN > x"; "ra rb"; "(ra"; "SELECT * FROM ra WHERE IS {a}" ]

let test_parser_roundtrip () =
  (* to_string of a parse reparses to the same AST. *)
  List.iter
    (fun input ->
      let q = parses input in
      let q' = parses (Ast.to_string q) in
      Alcotest.(check bool) ("roundtrip " ^ input) true (Ast.equal q q'))
    [ "ra";
      "ra UNION rb";
      "SELECT a, b FROM ra WHERE x IS {a, b} WITH SN >= 0.25";
      "SELECT * FROM (ra UNION rb) WHERE x = 3 AND y IS {c}";
      "ra JOIN rb ON a = b WITH SP > 0.1";
      "(ra TIMES rb) UNION (ra TIMES rb)";
      "ra INTERSECT (rb EXCEPT ra)";
      "(ra PREFIX l_) JOIN (ra PREFIX r_) ON l_rname = r_rname";
      "SELECT * FROM ra WHERE x IS {a} ORDER BY SP ASC LIMIT 7";
      "ra ORDER BY SN DESC" ]

(* --- Evaluation ----------------------------------------------------- *)

let test_eval_matches_direct_ops () =
  rel_eq "union = Ops.union"
    (Erm.Ops.union Paperdata.r_a Paperdata.r_b)
    (Query.Eval.run env "ra UNION rb");
  rel_eq "select = Ops.select (Table 2)" Paperdata.table2
    (Query.Eval.run env
       "SELECT * FROM ra WHERE speciality IS {si} WITH SN > 0")

let test_eval_projection_cols () =
  rel_eq "projection via cols (Table 5)" Paperdata.table5
    (Query.Eval.run env "SELECT rname, phone, speciality, rating FROM ra")

let test_eval_evidence_literal () =
  (* speciality = [mu^1] needs a frame: taken from the peer attribute. *)
  let r =
    Query.Eval.run env "SELECT * FROM ra WHERE speciality = [mu^0.5; ta^0.5]"
  in
  (* mehl's speciality [mu^.8; ta^.2]: equality of singleton focals:
     mu=mu .4, ta=ta .1 -> sn = sp = 0.5. ashiana: mu focal .9·.5 -> .45. *)
  Alcotest.(check int) "mehl and ashiana match" 2 (Erm.Relation.cardinal r)

let test_eval_theta_scalar () =
  let r = Query.Eval.run env "SELECT rname FROM ra WHERE bldg-no < 600" in
  (* definite bldg-no: 2011,600,12,514,820,353 -> 12, 514, 353. *)
  Alcotest.(check int) "three buildings below 600" 3 (Erm.Relation.cardinal r)

let test_eval_join () =
  let rb_renamed =
    Erm.Ops.rename_attrs
      (fun n -> if n = "rname" then "r_rname" else "r_" ^ n)
      Paperdata.r_b
  in
  let env = ("rbr", rb_renamed) :: env in
  let r = Query.Eval.run env "ra JOIN rbr ON rname = r_rname" in
  Alcotest.(check int) "five key-equal pairs" 5 (Erm.Relation.cardinal r)

let test_eval_errors () =
  let eval_error input =
    Alcotest.(check bool)
      ("rejects " ^ input)
      true
      (match Query.Eval.run env input with
      | _ -> false
      | exception Query.Eval.Eval_error _ -> true)
  in
  List.iter eval_error
    [ "nosuch";
      "SELECT * FROM ra WHERE nosuch IS {a}";
      "SELECT nosuch FROM ra";
      "SELECT street FROM ra" (* drops the key *);
      "SELECT * FROM ra WHERE street = [a^1]" (* literal vs definite attr *);
      "SELECT * FROM ra WHERE [a^1] = [b^1]" (* no attribute side *);
      "ra UNION (SELECT rname FROM ra)" (* incompatible *) ]

let test_eval_intersect_except () =
  rel_eq "INTERSECT = Ops.intersection"
    (Erm.Ops.intersection Paperdata.r_a Paperdata.r_b)
    (Query.Eval.run env "ra INTERSECT rb");
  rel_eq "EXCEPT = Ops.difference"
    (Erm.Ops.difference Paperdata.r_a Paperdata.r_b)
    (Query.Eval.run env "ra EXCEPT rb");
  (* ashiana is the only R_A tuple without an R_B counterpart. *)
  let only_a = Query.Eval.run env "ra EXCEPT rb" in
  Alcotest.(check int) "one A-only tuple" 1 (Erm.Relation.cardinal only_a);
  Alcotest.(check bool) "it is ashiana" true
    (Erm.Relation.mem only_a [ Dst.Value.string "ashiana" ]);
  (* Set identity on key sets: (A INTERSECT B) UNION (A EXCEPT B) covers
     exactly A's keys. *)
  let recombined =
    Query.Eval.run env "(ra INTERSECT rb) UNION (ra EXCEPT rb)"
  in
  Alcotest.(check int) "covers A's keys" (Erm.Relation.cardinal Paperdata.r_a)
    (Erm.Relation.cardinal recombined);
  (* And the AST pretty-printer round-trips the new forms. *)
  let q = parses "(ra INTERSECT rb) EXCEPT (SELECT * FROM ra)" in
  Alcotest.(check bool) "pp roundtrip" true
    (Ast.equal q (parses (Ast.to_string q)))

let test_eval_prefix_self_join () =
  (* Self-join without pre-renamed relations: restaurants on the same
     street as garden. *)
  let r =
    Query.Eval.run env
      "SELECT rname, r_rname FROM (ra JOIN (ra PREFIX r_) ON street = \
       r_street) WHERE rname = \"garden\""
  in
  (* garden pairs with itself and with ashiana (both univ.ave.). *)
  Alcotest.(check int) "two street-mates" 2 (Erm.Relation.cardinal r);
  (* Prefixed relations work in any operand position. *)
  let p = Query.Eval.run env "(ra PREFIX x_) TIMES rb" in
  Alcotest.(check int) "prefixed product" 30 (Erm.Relation.cardinal p);
  (* pp roundtrip. *)
  let q = parses "ra JOIN (ra PREFIX r_) ON rname = r_rname" in
  Alcotest.(check bool) "prefix pp roundtrip" true
    (Ast.equal q (parses (Ast.to_string q)));
  (* And the optimizer passes through it soundly. *)
  let q2 =
    parses
      "SELECT * FROM (ra JOIN (ra PREFIX r_) ON rname = r_rname) WHERE \
       rating IS {ex} AND r_rating IS {ex} WITH SN > 0.5"
  in
  rel_eq "optimizer sound across PREFIX" (Query.Eval.eval env q2)
    (Query.Plan.eval_optimized env q2)

(* --- Optimizer ------------------------------------------------------ *)

let test_infer_schema () =
  let s = Query.Plan.infer_schema env (Query.Parser.parse "ra UNION rb") in
  Alcotest.(check bool) "union keeps the schema" true
    (Erm.Schema.union_compatible s (Erm.Relation.schema Paperdata.r_a));
  let p =
    Query.Plan.infer_schema env (Query.Parser.parse "SELECT rname, rating FROM ra")
  in
  Alcotest.(check int) "projection narrows" 2 (Erm.Schema.arity p)

let test_optimize_cascade () =
  let q =
    Query.Parser.parse
      "SELECT * FROM (SELECT * FROM ra WHERE rating IS {ex}) WHERE \
       speciality IS {mu} WITH SN > 0.5"
  in
  match Query.Plan.optimize env q with
  | Ast.Select { from = Ast.Rel "ra"; where = Ast.And _; threshold = T.Cmp _; _ }
    -> ()
  | q' -> Alcotest.failf "expected a fused select, got %s" (Ast.to_string q')

let test_optimize_product_fusion () =
  let rb2 =
    Erm.Ops.rename_attrs (fun n -> "r_" ^ n) Paperdata.r_b
  in
  let env = ("rb2", rb2) :: env in
  let q = Query.Parser.parse "SELECT * FROM (ra TIMES rb2) WHERE rname = r_rname" in
  (match Query.Plan.optimize env q with
  | Ast.Join _ -> ()
  | q' -> Alcotest.failf "expected a join, got %s" (Ast.to_string q'));
  (* And the rewrite must not change the result. *)
  rel_eq "fusion sound"
    (Query.Eval.eval env q)
    (Query.Plan.eval_optimized env q)

let test_optimize_join_pushdown () =
  let rb2 = Erm.Ops.rename_attrs (fun n -> "r_" ^ n) Paperdata.r_b in
  let env = ("rb2", rb2) :: env in
  let q =
    Query.Parser.parse
      "SELECT * FROM (ra JOIN rb2 ON rname = r_rname) WHERE rating IS {ex} \
       AND r_rating IS {gd}"
  in
  let optimized = Query.Plan.optimize env q in
  (* Both conjuncts are single-side: they must move inside the join. *)
  (match optimized with
  | Ast.Join { left = Ast.Select _; right = Ast.Select _; _ } -> ()
  | q' -> Alcotest.failf "expected pushdown, got %s" (Ast.to_string q'));
  rel_eq "pushdown sound" (Query.Eval.eval env q)
    (Query.Eval.eval env optimized)

let test_optimize_no_pushdown_through_union () =
  (* σ over ∪ must NOT be rewritten: Dempster's rule does not commute
     with membership revision. *)
  let q =
    Query.Parser.parse "SELECT * FROM (ra UNION rb) WHERE rating IS {ex}"
  in
  match Query.Plan.optimize env q with
  | Ast.Select { from = Ast.Union _; _ } -> ()
  | q' -> Alcotest.failf "union must stay put, got %s" (Ast.to_string q')

let test_optimize_preserves_results () =
  List.iter
    (fun input ->
      let q = Query.Parser.parse input in
      rel_eq ("optimize preserves " ^ input) (Query.Eval.eval env q)
        (Query.Plan.eval_optimized env q))
    [ "SELECT * FROM (SELECT * FROM ra WHERE rating IS {ex}) WHERE \
       speciality IS {mu}";
      "SELECT rname, rating FROM (ra UNION rb) WHERE rating IS {gd} WITH SP \
       >= 0.5";
      "SELECT * FROM ra WHERE bldg-no >= 500 AND rating IS {ex} WITH SN > 0.1" ]

(* --- fuzz and differential ------------------------------------------- *)

let qprop name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:300 arb law)

(* The parser must reject garbage with Parse_error, never anything else
   (no assertion failures, no Invalid_argument leaks from the lexer). *)
let fuzz_fragments =
  [| "SELECT"; "FROM"; "WHERE"; "WITH"; "UNION"; "JOIN"; "ON"; "TIMES";
     "AND"; "OR"; "NOT"; "IS"; "SN"; "SP"; "ORDER"; "BY"; "LIMIT"; "*";
     "INTERSECT"; "EXCEPT"; "PREFIX"; "ASC"; "DESC"; "TRUE";
     "("; ")"; "{"; "}"; ","; "="; "<>"; "<"; "<="; ">"; ">="; "ra"; "x";
     "0.5"; "42"; "-1"; "{a, b}"; "[v^1]"; "\"str\""; "best-dish"; ";";
     "~" |]

let fuzz_arb =
  QCheck.make
    ~print:(fun words -> String.concat " " words)
    QCheck.Gen.(
      list_size (int_range 0 12)
        (map (fun i -> fuzz_fragments.(i mod Array.length fuzz_fragments))
           (int_bound (Array.length fuzz_fragments - 1))))

let fuzz_tests =
  [ qprop "parser total: Parse_error or success, never anything else"
      fuzz_arb
      (fun words ->
        let input = String.concat " " words in
        match Query.Parser.parse input with
        | _ -> true
        | exception Query.Parser.Parse_error _ -> true
        | exception _ -> false);
    qprop "evaluator total on parsed garbage" fuzz_arb (fun words ->
        let input = String.concat " " words in
        match Query.Parser.parse input with
        | exception Query.Parser.Parse_error _ -> true
        | q -> (
            (* Anything that parses must evaluate or fail with a typed
               error — never a crash. *)
            match Query.Eval.eval env q with
            | _ -> true
            | exception Query.Eval.Eval_error _ -> true
            | exception Erm.Predicate.Predicate_error _ -> true
            | exception Dst.Value.Type_mismatch _ -> true
            | exception Dst.Mass.F.Total_conflict -> true
            | exception Erm.Ops.Incompatible_schemas _ -> true
            | exception Erm.Schema.Schema_error _ -> true
            | exception _ -> false));
    (* Differential: pretty-printed queries evaluate to the same result
       after a reparse. *)
    qprop "pp/parse/eval differential"
      (QCheck.make
         ~print:(fun i -> string_of_int i)
         (QCheck.Gen.int_bound 10000))
      (fun seed ->
        let rng = Workload.Rng.create seed in
        let v () = "v" ^ string_of_int (Workload.Rng.int rng 8) in
        let texts =
          [ Printf.sprintf
              "SELECT * FROM ra WHERE speciality IS {si} WITH SN > 0.%d"
              (Workload.Rng.int rng 9);
            Printf.sprintf "SELECT rname, rating FROM (ra UNION rb) WHERE \
                            rating IS {ex, gd} ORDER BY SN DESC LIMIT %d"
              (1 + Workload.Rng.int rng 5);
            Printf.sprintf "SELECT * FROM ra WHERE bldg-no >= %d"
              (Workload.Rng.int rng 2000) ]
        in
        ignore (v ());
        List.for_all
          (fun text ->
            let q = Query.Parser.parse text in
            let q' = Query.Parser.parse (Ast.to_string q) in
            Erm.Relation.equal (Query.Eval.eval env q)
              (Query.Eval.eval env q'))
          texts) ]

(* --- physical planner ------------------------------------------------ *)

let test_physical_picks_hash_join () =
  let rb2 = Erm.Ops.rename_attrs (fun n -> "r_" ^ n) Paperdata.r_b in
  let env = ("rb2", rb2) :: env in
  let q = Query.Parser.parse "ra JOIN rb2 ON rname = r_rname" in
  (match Query.Physical.plan env q with
  | Query.Physical.Hash_join { left_attr = "rname"; right_attr = "r_rname"; _ }
    ->
      ()
  | p ->
      Alcotest.failf "expected hash join, got %s" (Query.Physical.to_string p));
  (* … and an evidential equality must stay a nested loop. *)
  let q' = Query.Parser.parse "ra JOIN rb2 ON rating = r_rating" in
  match Query.Physical.plan env q' with
  | Query.Physical.Loop_join _ -> ()
  | p ->
      Alcotest.failf "expected loop join, got %s" (Query.Physical.to_string p)

let test_physical_picks_index_probe () =
  let q =
    Query.Parser.parse
      "SELECT rname, rating FROM ra WHERE street = \"univ.ave.\" AND rating \
       IS {ex}"
  in
  match Query.Physical.plan env q with
  | Query.Physical.Scan
      { access = Query.Physical.Index_eq { attr = "street"; _ };
        residual = Ast.Is ("rating", _); _ } ->
      ()
  | p ->
      Alcotest.failf "expected street probe, got %s"
        (Query.Physical.to_string p)

let test_physical_matches_eval_on_paper_queries () =
  let rb2 = Erm.Ops.rename_attrs (fun n -> "r_" ^ n) Paperdata.r_b in
  let env = ("rb2", rb2) :: env in
  let ctx = Query.Physical.create_ctx () in
  List.iter
    (fun input ->
      let q = Query.Parser.parse input in
      rel_eq ("physical = naive on " ^ input) (Query.Eval.eval env q)
        (Query.Physical.eval_fast ~ctx env q))
    [ "SELECT rname, rating FROM ra WHERE street = \"univ.ave.\"";
      "SELECT * FROM ra WHERE rname IS {mehl} AND rating IS {ex} WITH SN > 0.1";
      "ra JOIN rb2 ON rname = r_rname";
      "ra JOIN rb2 ON rname = r_rname AND rating IS {ex}";
      "SELECT * FROM (ra UNION rb) WHERE rating IS {ex}";
      "ra JOIN (ra PREFIX r_) ON rname = r_rname";
      "SELECT rname FROM (ra INTERSECT rb) WHERE speciality IS {mu} WITH SP \
       >= 0.5" ]

let test_analyze_reports_stats () =
  let ctx = Query.Physical.create_ctx () in
  let q = Query.Parser.parse "ra UNION rb" in
  let r1, rep = Query.Explain.analyze ~ctx env q in
  Alcotest.(check string) "root op" "union" rep.Query.Physical.r_op;
  Alcotest.(check int) "rows_out measured"
    (Erm.Relation.cardinal r1)
    rep.Query.Physical.r_stats.Query.Stats.rows_out;
  Alcotest.(check int) "two children" 2
    (List.length rep.Query.Physical.r_children);
  let misses = rep.Query.Physical.r_stats.Query.Stats.cache_misses in
  Alcotest.(check bool) "first run misses the union memo" true (misses > 0);
  (* Same union again through the same ctx: served by the memo. *)
  let _, rep2 = Query.Explain.analyze ~ctx env q in
  Alcotest.(check int) "second run fully memoized" misses
    rep2.Query.Physical.r_stats.Query.Stats.cache_hits;
  Alcotest.(check int) "no new misses" 0
    rep2.Query.Physical.r_stats.Query.Stats.cache_misses

let () =
  Alcotest.run "query"
    [ ( "lexer",
        [ Alcotest.test_case "tokens" `Quick test_lexer_basics;
          Alcotest.test_case "errors" `Quick test_lexer_errors ] );
      ( "parser",
        [ Alcotest.test_case "query shapes" `Quick test_parser_shapes;
          Alcotest.test_case "predicates" `Quick test_parser_predicates;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "pp roundtrip" `Quick test_parser_roundtrip ] );
      ( "eval",
        [ Alcotest.test_case "matches direct ops" `Quick
            test_eval_matches_direct_ops;
          Alcotest.test_case "projection" `Quick test_eval_projection_cols;
          Alcotest.test_case "evidence literals" `Quick
            test_eval_evidence_literal;
          Alcotest.test_case "θ on definite attrs" `Quick
            test_eval_theta_scalar;
          Alcotest.test_case "join" `Quick test_eval_join;
          Alcotest.test_case "errors" `Quick test_eval_errors;
          Alcotest.test_case "INTERSECT and EXCEPT" `Quick
            test_eval_intersect_except;
          Alcotest.test_case "PREFIX self-join" `Quick
            test_eval_prefix_self_join ] );
      ( "plan",
        [ Alcotest.test_case "infer_schema" `Quick test_infer_schema;
          Alcotest.test_case "selection cascade" `Quick test_optimize_cascade;
          Alcotest.test_case "product fusion" `Quick
            test_optimize_product_fusion;
          Alcotest.test_case "join pushdown" `Quick
            test_optimize_join_pushdown;
          Alcotest.test_case "no pushdown through union" `Quick
            test_optimize_no_pushdown_through_union;
          Alcotest.test_case "rewrites preserve results" `Quick
            test_optimize_preserves_results ] );
      ( "physical",
        [ Alcotest.test_case "hash join for definite equi-keys" `Quick
            test_physical_picks_hash_join;
          Alcotest.test_case "index probe for definite equality" `Quick
            test_physical_picks_index_probe;
          Alcotest.test_case "physical = naive on paper queries" `Quick
            test_physical_matches_eval_on_paper_queries;
          Alcotest.test_case "analyze reports measured stats" `Quick
            test_analyze_reports_stats ] );
      ("fuzz", fuzz_tests) ]
