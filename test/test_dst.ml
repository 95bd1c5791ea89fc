(* Core DS theory: Value, Vset, Domain, and the Mass functor's
   constructors, measures, classification and transformations. The
   combination rules have their own suite (test_combine.ml). *)

module V = Dst.Value
module Vs = Dst.Vset
module D = Dst.Domain
module M = Dst.Mass.F

let feq = Alcotest.float 1e-9
let vset = Alcotest.testable Vs.pp Vs.equal
let value = Alcotest.testable V.pp V.equal
let mass_t = Alcotest.testable M.pp M.equal

(* --- Value --------------------------------------------------------- *)

let test_value_compare () =
  Alcotest.(check bool) "ints order" true (V.compare (V.int 1) (V.int 2) < 0);
  Alcotest.(check bool)
    "strings order" true
    (V.compare (V.string "a") (V.string "b") < 0);
  Alcotest.(check bool)
    "kinds separate" true
    (V.compare (V.int 1) (V.string "1") <> 0);
  Alcotest.(check bool) "equal ints" true (V.equal (V.int 3) (V.int 3));
  Alcotest.(check bool)
    "same kind check" true
    (V.same_kind (V.float 1.0) (V.float 2.0));
  Alcotest.(check string) "kind names" "string" (V.kind_name (V.string "x"))

let test_value_ordered_mismatch () =
  Alcotest.check_raises "int vs string raises"
    (V.Type_mismatch (V.int 1, V.string "a"))
    (fun () -> ignore (V.compare_ordered (V.int 1) (V.string "a")))

let test_value_literals () =
  Alcotest.check value "int literal" (V.int 42) (V.of_literal "42");
  Alcotest.check value "negative int" (V.int (-7)) (V.of_literal "-7");
  Alcotest.check value "float literal" (V.float 2.5) (V.of_literal "2.5");
  Alcotest.check value "bool literal" (V.bool true) (V.of_literal "true");
  Alcotest.check value "bare identifier" (V.string "hunan")
    (V.of_literal "hunan");
  Alcotest.check value "quoted string" (V.string "two words")
    (V.of_literal "\"two words\"");
  Alcotest.check value "identifier with dash" (V.string "nine-th")
    (V.of_literal "nine-th");
  Alcotest.check_raises "empty literal"
    (Invalid_argument "Value.of_literal: empty literal") (fun () ->
      ignore (V.of_literal "  "))

let test_value_pp_roundtrip () =
  let cases =
    [ V.int 5; V.int (-3); V.float 1.25; V.float 2.0; V.bool false;
      V.string "si"; V.string "9th-street"; V.string "has space" ]
  in
  List.iter
    (fun v ->
      Alcotest.check value
        ("roundtrip " ^ V.to_string v)
        v
        (V.of_literal (V.to_string v)))
    cases

(* --- Vset ---------------------------------------------------------- *)

let abc = Vs.of_strings [ "a"; "b"; "c" ]
let bc = Vs.of_strings [ "b"; "c" ]
let de = Vs.of_strings [ "d"; "e" ]

let test_vset_ops () =
  Alcotest.(check int) "cardinal" 3 (Vs.cardinal abc);
  Alcotest.(check bool) "subset" true (Vs.subset bc abc);
  Alcotest.(check bool) "not subset" false (Vs.subset abc bc);
  Alcotest.(check bool) "disjoint" true (Vs.disjoint bc de);
  Alcotest.check vset "inter" bc (Vs.inter abc bc);
  Alcotest.check vset "diff" (Vs.of_strings [ "a" ]) (Vs.diff abc bc);
  Alcotest.check vset "union"
    (Vs.of_strings [ "a"; "b"; "c"; "d"; "e" ])
    (Vs.union abc de);
  Alcotest.(check bool) "mem" true (Vs.mem (V.string "b") abc);
  Alcotest.check_raises "choose empty" Not_found (fun () ->
      ignore (Vs.choose Vs.empty))

let test_vset_pairs () =
  let lt a b = V.compare a b < 0 in
  Alcotest.(check bool)
    "forall_pairs: {a,b} all-less-than {c,d}" true
    (Vs.forall_pairs lt
       (Vs.of_strings [ "a"; "b" ])
       (Vs.of_strings [ "c"; "d" ]));
  Alcotest.(check bool)
    "forall_pairs fails when one pair fails" false
    (Vs.forall_pairs lt (Vs.of_strings [ "a"; "d" ]) (Vs.of_strings [ "c" ]));
  Alcotest.(check bool)
    "exists_pair finds the one pair" true
    (Vs.exists_pair lt (Vs.of_strings [ "a"; "d" ]) (Vs.of_strings [ "c" ]));
  Alcotest.(check bool)
    "exists_pair on disjoint failure" false
    (Vs.exists_pair (fun a b -> V.equal a b) bc de);
  Alcotest.(check bool)
    "forall_pairs vacuous on empty" true
    (Vs.forall_pairs lt Vs.empty abc)

let test_vset_pp () =
  Alcotest.(check string) "braced" "{a, b, c}" (Vs.to_string abc);
  Alcotest.(check string)
    "compact singleton drops braces" "a"
    (Format.asprintf "%a" Vs.pp_compact (Vs.of_strings [ "a" ]));
  Alcotest.(check string)
    "compact pair keeps braces" "{b, c}"
    (Format.asprintf "%a" Vs.pp_compact bc)

(* --- Domain -------------------------------------------------------- *)

let colors = D.of_strings "colors" [ "red"; "green"; "blue" ]

let test_domain () =
  Alcotest.(check int) "size" 3 (D.size colors);
  Alcotest.(check bool) "mem" true (D.mem (V.string "red") colors);
  Alcotest.(check bool)
    "subset" true
    (D.subset (Vs.of_strings [ "red"; "blue" ]) colors);
  Alcotest.(check bool)
    "equality ignores names" true
    (D.equal colors (D.of_strings "other" [ "blue"; "green"; "red" ]));
  Alcotest.(check int) "boolean frame has two values" 2 (D.size D.boolean);
  Alcotest.check_raises "empty domain rejected" (D.Empty_domain "void")
    (fun () -> ignore (D.make "void" Vs.empty))

(* --- Mass: constructors and validation ----------------------------- *)

let red = Vs.of_strings [ "red" ]
let green = Vs.of_strings [ "green" ]
let blue = Vs.of_strings [ "blue" ]
let red_green = Vs.of_strings [ "red"; "green" ]

let test_mass_make () =
  let m = M.make colors [ (red, 0.6); (red_green, 0.4) ] in
  Alcotest.check feq "mass red" 0.6 (M.mass m red);
  Alcotest.check feq "mass {red,green}" 0.4 (M.mass m red_green);
  Alcotest.check feq "absent focal is 0" 0.0 (M.mass m green);
  Alcotest.(check int) "two focals" 2 (M.focal_count m)

let test_mass_make_merges_duplicates () =
  let m = M.make colors [ (red, 0.3); (red, 0.3); (red_green, 0.4) ] in
  Alcotest.check feq "duplicates summed" 0.6 (M.mass m red);
  Alcotest.(check int) "focal count after merge" 2 (M.focal_count m)

let test_mass_make_drops_zeros () =
  let m = M.make colors [ (red, 1.0); (green, 0.0) ] in
  Alcotest.(check int) "zero-mass focal dropped" 1 (M.focal_count m)

let invalid f =
  Alcotest.(check bool)
    "raises Invalid_mass" true
    (match f () with _ -> false | exception M.Invalid_mass _ -> true)

let test_mass_validation () =
  invalid (fun () -> M.make colors [ (red, 0.5) ]);
  invalid (fun () -> M.make colors [ (red, 1.2) ]);
  invalid (fun () -> M.make colors [ (red, 1.5); (green, -0.5) ]);
  invalid (fun () -> M.make colors [ (Vs.empty, 1.0) ]);
  invalid (fun () -> M.make colors [ (Vs.of_strings [ "puce" ], 1.0) ]);
  invalid (fun () -> M.make_normalized colors []);
  invalid (fun () -> M.combine_many [])

let test_mass_normalized () =
  let m = M.make_normalized colors [ (red, 3.0); (green, 1.0) ] in
  Alcotest.check feq "3:1 normalizes to 0.75" 0.75 (M.mass m red);
  Alcotest.check feq "and 0.25" 0.25 (M.mass m green)

let test_mass_special_constructors () =
  Alcotest.(check bool) "vacuous" true (M.is_vacuous (M.vacuous colors));
  let c = M.certain colors (V.string "red") in
  Alcotest.(check bool) "certain is definite" true (M.is_definite c);
  Alcotest.check
    (Alcotest.option value)
    "definite_value"
    (Some (V.string "red"))
    (M.definite_value c);
  let s = M.simple_support colors red 0.7 in
  Alcotest.check feq "simple support focal" 0.7 (M.mass s red);
  Alcotest.check feq "simple support omega" 0.3 (M.mass s (D.values colors));
  let b =
    M.bayesian colors [ (V.string "red", 0.5); (V.string "green", 0.5) ]
  in
  Alcotest.(check bool) "bayesian" true (M.is_bayesian b);
  Alcotest.(check bool) "bayesian but not definite" false (M.is_definite b)

(* --- Mass: belief measures ----------------------------------------- *)

let wok = Paperdata.wok_m1
(* [ca^1/2; {hu,si}^1/3; ~^1/6] over six cuisines *)

let test_bel_pls () =
  let ca = Vs.of_strings [ "ca" ] in
  let hu_si = Vs.of_strings [ "hu"; "si" ] in
  let hu = Vs.of_strings [ "hu" ] in
  Alcotest.check feq "Bel({ca})" 0.5 (M.bel wok ca);
  Alcotest.check feq "Pls({ca}) = 1/2 + 1/6" (2.0 /. 3.0) (M.pls wok ca);
  Alcotest.check feq "Bel({hu}) = 0 (focal supersets do not count)" 0.0
    (M.bel wok hu);
  Alcotest.check feq "Pls({hu}) = 1/3 + 1/6" 0.5 (M.pls wok hu);
  Alcotest.check feq "Bel({hu,si})" (1.0 /. 3.0) (M.bel wok hu_si);
  Alcotest.check feq "Bel(omega) = 1" 1.0 (M.bel wok (D.values (M.frame wok)));
  Alcotest.check feq "Pls(omega) = 1" 1.0 (M.pls wok (D.values (M.frame wok)));
  Alcotest.check feq "doubt({ca}) = Bel(complement)" (1.0 /. 3.0)
    (M.doubt wok ca);
  Alcotest.check feq "ignorance = Pls - Bel" (1.0 /. 6.0) (M.ignorance wok ca)

let test_commonality () =
  Alcotest.check feq "Q({hu}) counts {hu,si} and omega" 0.5
    (M.commonality wok (Vs.of_strings [ "hu" ]));
  Alcotest.check feq "Q(omega) = m(omega)" (1.0 /. 6.0)
    (M.commonality wok (D.values (M.frame wok)))

let test_interval_invariant () =
  let check_set s =
    let bel, pls = M.interval wok (Vs.of_strings s) in
    Alcotest.(check bool) "Bel <= Pls" true (bel <= pls +. 1e-12)
  in
  List.iter check_set [ [ "ca" ]; [ "hu" ]; [ "ca"; "hu" ]; [ "it" ] ]

(* --- Mass: classification ------------------------------------------ *)

let test_consonant () =
  let nested =
    M.make colors [ (red, 0.5); (red_green, 0.3); (D.values colors, 0.2) ]
  in
  Alcotest.(check bool)
    "nested focals are consonant" true (M.is_consonant nested);
  let split = M.make colors [ (red, 0.5); (green, 0.5) ] in
  Alcotest.(check bool)
    "disjoint singletons are not" false (M.is_consonant split);
  Alcotest.(check bool)
    "vacuous is consonant" true
    (M.is_consonant (M.vacuous colors))

(* --- Mass: transformations ----------------------------------------- *)

let test_pignistic () =
  let m =
    M.make colors [ (red_green, 0.6); (D.values colors, 0.3); (red, 0.1) ]
  in
  let betp = M.pignistic m in
  let get v = List.assoc (V.string v) betp in
  Alcotest.check feq "BetP(red) = 0.6/2 + 0.3/3 + 0.1" 0.5 (get "red");
  Alcotest.check feq "BetP(green) = 0.6/2 + 0.3/3" 0.4 (get "green");
  Alcotest.check feq "BetP(blue) = 0.3/3" 0.1 (get "blue");
  Alcotest.check feq "BetP sums to one" 1.0
    (List.fold_left (fun acc (_, p) -> acc +. p) 0.0 betp)

let test_discount () =
  let m = M.make colors [ (red, 0.8); (green, 0.2) ] in
  let d = M.discount 0.5 m in
  Alcotest.check feq "red halved" 0.4 (M.mass d red);
  Alcotest.check feq "omega absorbs the rest" 0.5 (M.mass d (D.values colors));
  Alcotest.check mass_t "discount 1.0 is identity" m (M.discount 1.0 m);
  Alcotest.(check bool)
    "discount 0.0 is vacuous" true
    (M.is_vacuous (M.discount 0.0 m));
  Alcotest.check_raises "alpha out of range"
    (Invalid_argument "Mass.discount: reliability outside [0,1]") (fun () ->
      ignore (M.discount 1.5 m))

let test_condition () =
  let m = M.make colors [ (red, 0.5); (red_green, 0.3); (green, 0.2) ] in
  let c = M.condition m red in
  Alcotest.check feq "conditioning on {red}" 1.0 (M.mass c red);
  Alcotest.check_raises "conditioning on an impossible set" M.Total_conflict
    (fun () -> ignore (M.condition (M.certain colors (V.string "red")) green))

let test_decisions () =
  Alcotest.check value "max_bel of the wok evidence" (V.string "ca")
    (M.max_bel wok);
  (* Pls(ca) = 2/3 vs Pls(hu) = Pls(si) = 1/2: ca still wins. *)
  Alcotest.check value "max_pls" (V.string "ca") (M.max_pls wok)

let test_approximate () =
  let m =
    M.make colors
      [ (red, 0.5); (green, 0.3); (red_green, 0.15); (blue, 0.05) ]
  in
  let a = M.approximate ~max_focals:3 m in
  Alcotest.(check int) "at most 3 focals" 3 (M.focal_count a);
  (* The two heaviest focals survive; the rest moves to omega. *)
  Alcotest.check feq "red kept" 0.5 (M.mass a red);
  Alcotest.check feq "green kept" 0.3 (M.mass a green);
  Alcotest.check feq "rest on omega" 0.2 (M.mass a (D.values colors));
  (* Conservative: Bel shrinks, Pls grows, on every set. *)
  List.iter
    (fun set ->
      Alcotest.(check bool) "Bel' <= Bel" true (M.bel a set <= M.bel m set +. 1e-12);
      Alcotest.(check bool) "Pls' >= Pls" true (M.pls a set >= M.pls m set -. 1e-12))
    [ red; green; blue; red_green ];
  Alcotest.check mass_t "identity when under budget" m
    (M.approximate ~max_focals:4 m);
  Alcotest.(check bool) "max_focals 1 is vacuous" true
    (M.is_vacuous (M.approximate ~max_focals:1 m));
  Alcotest.check_raises "max_focals 0 rejected"
    (Invalid_argument "Mass.approximate: max_focals < 1") (fun () ->
      ignore (M.approximate ~max_focals:0 m))

let test_approximate_omega_budget () =
  (* Omega never counts against the budget: with an omega focal present
     and budget 2, one non-omega focal survives. *)
  let m = M.make colors [ (red, 0.6); (green, 0.3); (D.values colors, 0.1) ] in
  let a = M.approximate ~max_focals:2 m in
  Alcotest.check feq "red survives" 0.6 (M.mass a red);
  Alcotest.check feq "omega absorbs green" 0.4 (M.mass a (D.values colors))

(* --- Measures ------------------------------------------------------- *)

let test_measures_anchors () =
  let vac = M.vacuous colors in
  let cert = M.certain colors (V.string "red") in
  Alcotest.check feq "vacuous nonspecificity = log2 |Omega|"
    (Float.log 3.0 /. Float.log 2.0)
    (Dst.Measures.nonspecificity vac);
  Alcotest.check feq "certain nonspecificity = 0" 0.0
    (Dst.Measures.nonspecificity cert);
  Alcotest.check feq "vacuous dissonance = 0" 0.0
    (Dst.Measures.dissonance vac);
  Alcotest.check feq "certain dissonance = 0" 0.0
    (Dst.Measures.dissonance cert);
  Alcotest.check feq "certain pignistic entropy = 0" 0.0
    (Dst.Measures.pignistic_entropy cert);
  let uniform =
    M.bayesian colors
      [ (V.string "red", 1.0 /. 3.0); (V.string "green", 1.0 /. 3.0);
        (V.string "blue", 1.0 /. 3.0) ]
  in
  Alcotest.check feq "uniform pignistic entropy = log2 3"
    (Float.log 3.0 /. Float.log 2.0)
    (Dst.Measures.pignistic_entropy uniform)

let test_measures_dissonance () =
  (* Bayesian 0.5/0.5: each singleton has Pls = 0.5, so E = 1 bit. *)
  let split =
    M.bayesian colors [ (V.string "red", 0.5); (V.string "green", 0.5) ]
  in
  Alcotest.check feq "split dissonance = 1 bit" 1.0
    (Dst.Measures.dissonance split);
  (* The paper's §2.2 combination reduces nonspecificity: focal
     elements only shrink under intersection. *)
  let combined = M.combine Paperdata.wok_m1 Paperdata.wok_m2 in
  Alcotest.(check bool) "combination reduces nonspecificity" true
    (Dst.Measures.nonspecificity combined
    < Dst.Measures.nonspecificity Paperdata.wok_m1);
  Alcotest.(check bool) "total uncertainty is the sum" true
    (Float.abs
       (Dst.Measures.total_uncertainty combined
       -. (Dst.Measures.nonspecificity combined
          +. Dst.Measures.dissonance combined))
    < 1e-12)

let test_measures_distance () =
  let a = M.certain colors (V.string "red") in
  let b = M.certain colors (V.string "green") in
  Alcotest.check feq "opposite certainties are distance 1" 1.0
    (Dst.Measures.pignistic_distance a b);
  Alcotest.check feq "self distance 0" 0.0 (Dst.Measures.pignistic_distance a a);
  Alcotest.(check bool)
    "frame mismatch" true
    (match
       Dst.Measures.pignistic_distance a (M.vacuous D.boolean)
     with
    | _ -> false
    | exception M.Frame_mismatch _ -> true)

let test_pp_notation () =
  let m = M.make colors [ (red, 0.5); (D.values colors, 0.5) ] in
  Alcotest.(check string)
    "paper notation with ~ for omega" "[~^0.5; red^0.5]" (M.to_string m)

(* --- metamorphic combination properties ----------------------------- *)

(* Dempster's rule probed through the production paths: the physical
   executor's union memo, the metrics-instrumented combine_opt, and the
   tracer. The generated evidence keeps Gen's default Ω floor, so κ < 1
   and combination never throws Total_conflict. *)

let meta_prop name law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:200 (QCheck.int_range 0 1_000_000) law)

let meta_dom = Workload.Gen.domain ~size:8 "meta"

let gen_pair seed =
  let rng = Workload.Rng.create seed in
  ( Workload.Gen.evidence rng ~focals:4 ~max_focal_size:3 meta_dom,
    Workload.Gen.evidence rng ~focals:4 ~max_focal_size:3 meta_dom )

let gen_triple seed =
  let rng = Workload.Rng.create (seed + 31) in
  let e () = Workload.Gen.evidence rng ~focals:3 ~max_focal_size:3 meta_dom in
  (e (), e (), e ())

let with_default_metrics f =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
    f

let metamorphic_props =
  [ meta_prop "combination is commutative under the memo-cache" (fun s ->
        let m1, m2 = gen_pair s in
        (* One-tuple relations holding m1 and m2, united both ways on
           one context: the memo keys operand order, so the swapped
           union is derived afresh, and its cell equals the first's. *)
        let rel name m =
          let schema =
            Erm.Schema.make ~name
              ~key:[ Erm.Attr.definite "k" "string" ]
              ~nonkey:[ Erm.Attr.evidential "e" meta_dom ]
          in
          Erm.Relation.of_tuples schema
            [ Erm.Etuple.make schema ~key:[ V.string "k" ]
                ~cells:[ Erm.Etuple.Evidence m ] ~tm:Dst.Support.certain ]
        in
        let env = [ ("a", rel "a" m1); ("b", rel "b" m2) ] in
        let ctx = Query.Physical.create_ctx () in
        let cell q =
          match Erm.Relation.tuples (Query.Physical.run ~ctx env q) with
          | [ t ] -> (
              match Erm.Etuple.cells t with
              | [ Erm.Etuple.Evidence m ] -> m
              | _ -> assert false)
          | _ -> assert false
        in
        let ab = cell "a UNION b" and ba = cell "b UNION a" in
        M.equal ab ba
        && M.compare ab (M.combine m1 m2) = 0
        && M.compare ba (M.combine m2 m1) = 0);
    meta_prop "combination is associative (within float tolerance)" (fun s ->
        let m1, m2, m3 = gen_triple s in
        M.equal (M.combine (M.combine m1 m2) m3)
          (M.combine m1 (M.combine m2 m3)));
    meta_prop "metric kappa = kappa recomputed from first principles"
      (fun s ->
        let m1, m2 = gen_pair s in
        with_default_metrics (fun () ->
            ignore (M.combine_opt m1 m2);
            match Obs.Metrics.last "dst.combine.conflict_kappa" with
            | Some reported -> Float.equal reported (M.conflict m1 m2)
            | None -> false));
    meta_prop "observability never changes a combination (observer effect)"
      (fun s ->
        let m1, m2 = gen_pair s in
        let plain = M.combine m1 m2 in
        let observed =
          with_default_metrics (fun () ->
              Obs.Trace.clear Obs.Trace.default;
              Obs.Trace.enable Obs.Trace.default;
              Fun.protect
                ~finally:(fun () ->
                  Obs.Trace.disable Obs.Trace.default;
                  Obs.Trace.clear Obs.Trace.default)
                (fun () -> M.combine m1 m2))
        in
        (* Bit-exact focal-by-focal agreement, not tolerance equality. *)
        List.for_all2
          (fun (s1, x1) (s2, x2) -> Vs.equal s1 s2 && Float.equal x1 x2)
          (M.focals plain) (M.focals observed)) ]

(* --- Frame masks: the order rule ------------------------------------- *)

(* The set of frame values whose bits are set in a one-word mask. *)
let decode dom m = D.vset_at dom m 0

let frame7 = D.of_strings "seven" [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ]
let frame70 = Workload.Gen.domain ~size:70 "wide"

let sign c = compare c 0

let test_order_rule_exhaustive () =
  (* Every pair of the 128 subsets of a 7-value frame. *)
  for a = 0 to 127 do
    for b = 0 to 127 do
      let ma = [| a |] and mb = [| b |] in
      let expected = sign (Vs.compare (decode frame7 ma) (decode frame7 mb)) in
      if sign (D.compare_at 1 ma 0 mb 0) <> expected then
        Alcotest.failf "masks %d, %d: compare %d, Vset.compare %d" a b
          (D.compare_at 1 ma 0 mb 0) expected
    done
  done

let test_order_rule_wide () =
  (* Two-word masks of a 70-value frame, from sets sharing long prefixes
     so that the differing bit falls in either word. *)
  let rng = Workload.Rng.create 70 in
  let values = Array.of_list (Vs.to_list (D.values frame70)) in
  let draw () =
    let lo = Workload.Rng.int rng 70 in
    let size = Workload.Rng.int rng 6 in
    Vs.of_list
      (List.init size (fun _ -> values.(lo + Workload.Rng.int rng (70 - lo))))
  in
  Alcotest.(check int) "two words" 2 (D.words frame70);
  for _ = 1 to 5000 do
    let a = draw () in
    let b = if Workload.Rng.bool rng then draw () else Vs.union a (draw ()) in
    let ma = D.mask frame70 a and mb = D.mask frame70 b in
    Alcotest.(check vset) "mask decodes to its set" a (D.vset_at frame70 ma 0);
    Alcotest.(check int)
      (Format.asprintf "%a vs %a" Vs.pp a Vs.pp b)
      (sign (Vs.compare a b))
      (sign (D.compare_at 2 ma 0 mb 0))
  done

module Mq = Dst.Mass.Make (Dst.Num.Rational)

let test_focals_ascending () =
  let rng = Workload.Rng.create 11 in
  List.iter
    (fun dom ->
      for _ = 1 to 200 do
        let e =
          Workload.Gen.evidence rng ~focals:6 ~max_focal_size:4 dom
        in
        let q =
          Mq.make_normalized dom
            (List.map (fun (s, x) -> (s, Qarith.Q.of_float_dyadic x)) (M.focals e))
        in
        let ascending sets =
          let rec go = function
            | a :: (b :: _ as rest) -> Vs.compare a b < 0 && go rest
            | [ _ ] | [] -> true
          in
          go sets
        in
        Alcotest.(check bool) "M.focals ascending" true
          (ascending (List.map fst (M.focals e)));
        Alcotest.(check bool) "Mq.focals ascending" true
          (ascending (List.map fst (Mq.focals q)))
      done)
    [ frame7; Workload.Gen.domain ~size:8 "eight"; frame70 ]

(* --- Mass: combination ----------------------------------------------- *)

(* When one operand focal set contains the other, their intersection is
   the smaller set: every pair here is nested, so every result focal
   equals an operand's set. *)
let test_nested_focals () =
  let omega = D.values colors in
  let m1 = M.make colors [ (red_green, 0.6); (omega, 0.4) ] in
  let m2 = M.make colors [ (red, 0.7); (omega, 0.3) ] in
  let operand_sets = List.map fst (M.focals m1 @ M.focals m2) in
  List.iter
    (fun rule ->
      match M.combine_rule_opt ~rule m1 m2 with
      | None -> Alcotest.fail "nested focals cannot totally conflict"
      | Some (m, _) ->
          Alcotest.(check int)
            (Dst.Rule.to_string rule ^ ": three focals")
            3 (M.focal_count m);
          List.iter
            (fun (z, _) ->
              Alcotest.(check bool)
                (Format.asprintf "%s: %a is an operand's set"
                   (Dst.Rule.to_string rule) Vs.pp z)
                true
                (List.exists (Vs.equal z) operand_sets))
            (M.focals m))
    [ Dst.Rule.Dempster; Dst.Rule.Yager; Dst.Rule.Dubois_prade ]


(* Minor words per [combine_opt] over fixed-seed pairs of four-focal
   operands. The bounds are the counts measured for this kernel plus 25%
   (an 8-value frame measured 285 words, a 70-value frame 331, on OCaml
   5.1 x86-64). Focal sets kept as [Vset] trees in a [Map.Make (Vset)]
   take 1473 and 2120 words on the same pairs, so such a kernel fails
   the guard. *)
let minor_words_per_combine dom =
  let rng = Workload.Rng.create 7 in
  let pairs =
    List.init 500 (fun _ ->
        let a = Workload.Gen.evidence rng ~focals:4 dom in
        (a, Workload.Gen.evidence rng ~focals:4 dom))
  in
  List.iter (fun (a, b) -> ignore (M.combine_opt a b)) pairs;
  let before = Gc.minor_words () in
  List.iter (fun (a, b) -> ignore (Sys.opaque_identity (M.combine_opt a b))) pairs;
  (Gc.minor_words () -. before) /. float_of_int (List.length pairs)

let test_combine_allocation () =
  List.iter
    (fun (size, bound) ->
      let words =
        minor_words_per_combine (Workload.Gen.domain ~size "alloc")
      in
      if words > bound then
        Alcotest.failf "%d-value frame: %.0f minor words per combine > %.0f"
          size words bound)
    [ (8, 285. *. 1.25); (70, 331. *. 1.25) ]

let () =
  Alcotest.run "dst"
    [ ( "value",
        [ Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "ordered mismatch" `Quick
            test_value_ordered_mismatch;
          Alcotest.test_case "literals" `Quick test_value_literals;
          Alcotest.test_case "pp roundtrip" `Quick test_value_pp_roundtrip ] );
      ( "vset",
        [ Alcotest.test_case "set operations" `Quick test_vset_ops;
          Alcotest.test_case "pair quantifiers" `Quick test_vset_pairs;
          Alcotest.test_case "printing" `Quick test_vset_pp ] );
      ("domain", [ Alcotest.test_case "basics" `Quick test_domain ]);
      ( "mass-construct",
        [ Alcotest.test_case "make" `Quick test_mass_make;
          Alcotest.test_case "duplicate focals merge" `Quick
            test_mass_make_merges_duplicates;
          Alcotest.test_case "zeros dropped" `Quick test_mass_make_drops_zeros;
          Alcotest.test_case "validation" `Quick test_mass_validation;
          Alcotest.test_case "normalized" `Quick test_mass_normalized;
          Alcotest.test_case "special constructors" `Quick
            test_mass_special_constructors ] );
      ( "mass-measures",
        [ Alcotest.test_case "bel/pls/doubt" `Quick test_bel_pls;
          Alcotest.test_case "commonality" `Quick test_commonality;
          Alcotest.test_case "interval invariant" `Quick
            test_interval_invariant;
          Alcotest.test_case "consonance" `Quick test_consonant ] );
      ( "masks",
        [ Alcotest.test_case "order rule, all 7-value pairs" `Quick
            test_order_rule_exhaustive;
          Alcotest.test_case "order rule, 70-value frame" `Quick
            test_order_rule_wide;
          Alcotest.test_case "focals ascending" `Quick test_focals_ascending ] );
      ( "mass-combine",
        [ Alcotest.test_case "nested focal sets are kept"
            `Quick test_nested_focals;
          Alcotest.test_case "combine_opt allocation guard" `Quick
            test_combine_allocation ] );
      ( "mass-transform",
        [ Alcotest.test_case "pignistic" `Quick test_pignistic;
          Alcotest.test_case "discount" `Quick test_discount;
          Alcotest.test_case "condition" `Quick test_condition;
          Alcotest.test_case "decisions" `Quick test_decisions;
          Alcotest.test_case "approximate" `Quick test_approximate;
          Alcotest.test_case "approximate omega budget" `Quick
            test_approximate_omega_budget;
          Alcotest.test_case "pp" `Quick test_pp_notation ] );
      ( "measures",
        [ Alcotest.test_case "anchors" `Quick test_measures_anchors;
          Alcotest.test_case "dissonance and combination" `Quick
            test_measures_dissonance;
          Alcotest.test_case "pignistic distance" `Quick
            test_measures_distance ] );
      ("metamorphic", metamorphic_props) ]
