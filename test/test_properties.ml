(* Property-based tests (qcheck): DS-theoretic invariants of mass
   functions and combination, support-pair algebra, Theorem 1 (closure
   and boundedness of the five extended operators), operator laws, query
   optimizer soundness, and serialization round-trips — all on
   workload-generated structures.

   Complex structures are generated deterministically from an integer
   seed drawn by qcheck, via the Workload generators. *)

module M = Dst.Mass.F
module S = Dst.Support
module Vs = Dst.Vset
module D = Dst.Domain
module R = Workload.Rng
module G = Workload.Gen

let prop ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let seed_arb = QCheck.int_range 0 1_000_000

(* --- generators ----------------------------------------------------- *)

let dom8 = G.domain ~size:8 "d"

let gen_evidence seed =
  G.evidence (R.create seed) ~focals:4 ~max_focal_size:3 dom8

let gen_set seed =
  G.vset (R.create (seed + 7919)) dom8 ~max_size:4

let gen_support seed = G.support (R.create seed)

let schema = G.schema "props"

let gen_relation ?(size = 12) seed = G.relation (R.create seed) ~size schema

let gen_pair seed =
  G.source_pair (R.create seed) ~size:12 ~overlap:0.5 schema

(* A random is/θ predicate over the generated schema. *)
let gen_predicate seed =
  let rng = R.create (seed + 104729) in
  let attr = if R.bool rng then "e0" else "e1" in
  let set = G.vset rng dom8 ~max_size:3 in
  match R.int rng 3 with
  | 0 -> Erm.Predicate.is_ attr set
  | 1 ->
      Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field attr)
        (Erm.Predicate.Const
           (Erm.Etuple.Evidence (M.certain_set (D.make "lit" set) set)))
  | _ ->
      Erm.Predicate.(
        is_ "e0" set &&& is_values "e1" [ "v0"; "v1"; "v2" ])

let gen_threshold seed =
  let rng = R.create (seed + 1299709) in
  match R.int rng 4 with
  | 0 -> Erm.Threshold.always
  | 1 -> Erm.Threshold.sn_gt (R.float rng 0.8)
  | 2 -> Erm.Threshold.sp_ge (R.float rng 0.8)
  | _ -> Erm.Threshold.(sn_gt 0.1 &&& sp_ge 0.3)

(* --- mass function invariants --------------------------------------- *)

let total m = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 (M.focals m)

let well_formed m =
  Float.abs (total m -. 1.0) <= 1e-9
  && List.for_all
       (fun (set, x) -> (not (Vs.is_empty set)) && x > 0.0)
       (M.focals m)

let mass_props =
  [ prop "generated evidence is well-formed" seed_arb (fun s ->
        well_formed (gen_evidence s));
    prop "Bel <= Pls on random sets" seed_arb (fun s ->
        let m = gen_evidence s and set = gen_set s in
        let bel, pls = M.interval m set in
        bel <= pls +. 1e-12);
    prop "Bel(A) + Bel(complement) <= 1" seed_arb (fun s ->
        let m = gen_evidence s and set = gen_set s in
        M.bel m set +. M.doubt m set <= 1.0 +. 1e-9);
    prop "Pls(A) = 1 - Bel(complement)" seed_arb (fun s ->
        let m = gen_evidence s and set = gen_set s in
        Float.abs (M.pls m set -. (1.0 -. M.doubt m set)) <= 1e-9);
    prop "pignistic lies in the belief interval" seed_arb (fun s ->
        let m = gen_evidence s and set = gen_set s in
        let betp =
          List.fold_left
            (fun acc (v, p) -> if Vs.mem v set then acc +. p else acc)
            0.0 (M.pignistic m)
        in
        let bel, pls = M.interval m set in
        bel -. 1e-9 <= betp && betp <= pls +. 1e-9);
    prop "discount widens the belief interval" seed_arb (fun s ->
        let m = gen_evidence s and set = gen_set s in
        let d = M.discount 0.7 m in
        M.bel d set <= M.bel m set +. 1e-9
        && M.pls d set >= M.pls m set -. 1e-9) ]

let combine_props =
  [ prop "combination is well-formed" seed_arb (fun s ->
        let a = gen_evidence s and b = gen_evidence (s + 1) in
        well_formed (M.combine a b));
    prop "combination commutes" seed_arb (fun s ->
        let a = gen_evidence s and b = gen_evidence (s + 1) in
        M.equal (M.combine a b) (M.combine b a));
    prop "combination associates" ~count:100 seed_arb (fun s ->
        let a = gen_evidence s
        and b = gen_evidence (s + 1)
        and c = gen_evidence (s + 2) in
        M.equal (M.combine (M.combine a b) c) (M.combine a (M.combine b c)));
    prop "vacuous is the identity" seed_arb (fun s ->
        let a = gen_evidence s in
        M.equal a (M.combine a (M.vacuous dom8)));
    prop "kappa is symmetric and in [0,1)" seed_arb (fun s ->
        let a = gen_evidence s and b = gen_evidence (s + 1) in
        let k = M.conflict a b in
        Float.abs (k -. M.conflict b a) <= 1e-12 && k >= 0.0 && k < 1.0);
    prop "yager and dubois-prade stay well-formed" seed_arb (fun s ->
        let a = gen_evidence s and b = gen_evidence (s + 1) in
        well_formed (M.combine_yager a b)
        && well_formed (M.combine_dubois_prade a b)
        && well_formed (M.combine_average a b)
        && well_formed (M.combine_disjunctive a b));
    prop "combination never decreases Bel of agreed sets below inputs' min"
      ~count:100 seed_arb
      (fun s ->
        (* Dempster specializes: Pls never exceeds either input's Pls
           on singleton-free conflicts is not a law, but Q (commonality)
           multiplies then normalizes: Q12(A) = Q1(A)·Q2(A)/(1-κ). *)
        let a = gen_evidence s and b = gen_evidence (s + 1) in
        let set = gen_set s in
        let k = M.conflict a b in
        let c = M.combine a b in
        Float.abs
          ((M.commonality c set *. (1.0 -. k))
          -. (M.commonality a set *. M.commonality b set))
        <= 1e-9) ]

(* --- support-pair algebra ------------------------------------------- *)

let support_props =
  [ prop "f_tm commutes and stays valid" seed_arb (fun s ->
        let a = gen_support s and b = gen_support (s + 1) in
        S.equal (S.f_tm a b) (S.f_tm b a));
    prop "f_tm associates" seed_arb (fun s ->
        let a = gen_support s
        and b = gen_support (s + 1)
        and c = gen_support (s + 2) in
        S.equal (S.f_tm a (S.f_tm b c)) (S.f_tm (S.f_tm a b) c));
    prop "support combination commutes" seed_arb (fun s ->
        let a = gen_support s and b = gen_support (s + 1) in
        S.equal (S.combine a b) (S.combine b a));
    prop "support combination associates" ~count:100 seed_arb (fun s ->
        let a = gen_support s
        and b = gen_support (s + 1)
        and c = gen_support (s + 2) in
        S.equal (S.combine a (S.combine b c)) (S.combine (S.combine a b) c));
    prop "combination agrees with the boolean-frame mass function"
      seed_arb
      (fun s ->
        let a = gen_support s and b = gen_support (s + 1) in
        S.equal (S.combine a b) (S.of_mass (M.combine (S.to_mass a) (S.to_mass b))));
    prop "negation is involutive" seed_arb (fun s ->
        let a = gen_support s in
        S.equal a (S.negation (S.negation a)));
    prop "de morgan for the extension connectives" seed_arb (fun s ->
        let a = gen_support s and b = gen_support (s + 1) in
        S.equal
          (S.negation (S.conjunction a b))
          (S.disjunction (S.negation a) (S.negation b))) ]

(* --- Theorem 1: closure --------------------------------------------- *)

let cwa = Erm.Relation.satisfies_cwa

let closure_props =
  [ prop "selection closure" seed_arb (fun s ->
        cwa
          (Erm.Ops.select
             ~threshold:(gen_threshold s)
             (gen_predicate s) (gen_relation s)));
    prop "projection closure" seed_arb (fun s ->
        cwa (Erm.Ops.project [ "k"; "e0" ] (gen_relation s)));
    prop "union closure" seed_arb (fun s ->
        let a, b = gen_pair s in
        cwa (Erm.Ops.union a b));
    prop "product closure" ~count:50 seed_arb (fun s ->
        let a = gen_relation ~size:6 s in
        let b =
          Erm.Ops.rename_attrs (fun n -> "r_" ^ n) (gen_relation ~size:6 (s + 1))
        in
        cwa (Erm.Ops.product a b));
    prop "join closure" ~count:50 seed_arb (fun s ->
        let a = gen_relation ~size:6 s in
        let b =
          Erm.Ops.rename_attrs (fun n -> "r_" ^ n) (gen_relation ~size:6 (s + 1))
        in
        cwa
          (Erm.Ops.join
             (Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "e0")
                (Erm.Predicate.Field "r_e0"))
             a b)) ]

(* --- Theorem 1: boundedness ----------------------------------------- *)

(* Augment a relation with complement tuples: fresh keys, sn = 0. The
   boundedness property says operators over the augmented relation give
   exactly the same sn > 0 tuples. *)
let with_complement seed r =
  let rng = R.create (seed + 15485863) in
  let complements =
    List.init 5 (fun i ->
        let t =
          Erm.Relation.find r
            (List.nth
               (List.map Erm.Etuple.key (Erm.Relation.tuples r))
               (R.int rng (Erm.Relation.cardinal r)))
        in
        Erm.Etuple.make schema
          ~key:[ Dst.Value.string (Printf.sprintf "ghost%d" i) ]
          ~cells:(Erm.Etuple.cells t)
          ~tm:(S.make ~sn:0.0 ~sp:(R.float rng 1.0)))
  in
  List.fold_left Erm.Relation.add_unchecked r complements

let rel_equal = Erm.Relation.equal

let boundedness_props =
  [ prop "selection boundedness" seed_arb (fun s ->
        let r = gen_relation s in
        let aug = with_complement s r in
        rel_equal
          (Erm.Ops.select (gen_predicate s) r)
          (Erm.Ops.select (gen_predicate s) aug));
    prop "projection boundedness" seed_arb (fun s ->
        let r = gen_relation s in
        rel_equal
          (Erm.Ops.project [ "k"; "e1" ] r)
          (Erm.Ops.project [ "k"; "e1" ] (with_complement s r)));
    prop "union boundedness" seed_arb (fun s ->
        let a, b = gen_pair s in
        rel_equal (Erm.Ops.union a b)
          (Erm.Ops.union (with_complement s a) b));
    prop "product boundedness" ~count:50 seed_arb (fun s ->
        let a = gen_relation ~size:5 s in
        let b =
          Erm.Ops.rename_attrs (fun n -> "r_" ^ n) (gen_relation ~size:5 (s + 1))
        in
        rel_equal (Erm.Ops.product a b)
          (Erm.Ops.product (with_complement s a) b)) ]

(* --- operator laws --------------------------------------------------- *)

let operator_props =
  [ prop "union commutes" seed_arb (fun s ->
        let a, b = gen_pair s in
        rel_equal (Erm.Ops.union a b) (Erm.Ops.union b a));
    prop "union associates" ~count:50 seed_arb (fun s ->
        let a, b = gen_pair s in
        let c = G.reobserve (R.create (s + 17)) a in
        rel_equal
          (Erm.Ops.union (Erm.Ops.union a b) c)
          (Erm.Ops.union a (Erm.Ops.union b c)));
    prop "union with self-complement only reinforces" ~count:50 seed_arb
      (fun s ->
        (* x ∪ x: same keys, Dempster-reinforced; cardinality equal. *)
        let a = gen_relation s in
        Erm.Relation.cardinal (Erm.Ops.union a a) = Erm.Relation.cardinal a);
    prop "join = select of product" ~count:50 seed_arb (fun s ->
        let a = gen_relation ~size:5 s in
        let b =
          Erm.Ops.rename_attrs (fun n -> "r_" ^ n) (gen_relation ~size:5 (s + 1))
        in
        let pred =
          Erm.Predicate.theta Erm.Predicate.Eq (Erm.Predicate.Field "e1")
            (Erm.Predicate.Field "r_e1")
        in
        let threshold = gen_threshold s in
        rel_equal
          (Erm.Ops.join ~threshold pred a b)
          (Erm.Ops.select ~threshold pred (Erm.Ops.product a b)));
    prop "selection cascade = conjunction" seed_arb (fun s ->
        let r = gen_relation s in
        let p = gen_predicate s and q = gen_predicate (s + 31) in
        rel_equal
          (Erm.Ops.select p (Erm.Ops.select q r))
          (Erm.Ops.select (Erm.Predicate.And (p, q)) r));
    prop "stricter thresholds select subsets" seed_arb (fun s ->
        let r = gen_relation s in
        let p = gen_predicate s in
        let loose = Erm.Ops.select ~threshold:(Erm.Threshold.sn_gt 0.2) p r in
        let strict = Erm.Ops.select ~threshold:(Erm.Threshold.sn_gt 0.6) p r in
        Erm.Relation.for_all
          (fun t -> Erm.Relation.mem loose (Erm.Etuple.key t))
          strict) ]

(* --- optimizer soundness --------------------------------------------- *)

let plan_props =
  [ prop "optimize preserves select-over-join results" ~count:50 seed_arb
      (fun s ->
        let a = gen_relation ~size:5 s in
        let b =
          Erm.Ops.rename_attrs (fun n -> "r_" ^ n) (gen_relation ~size:5 (s + 1))
        in
        let env = [ ("a", a); ("b", b) ] in
        let rng = R.create (s + 777) in
        let v = "v" ^ string_of_int (R.int rng 8) in
        let q =
          Query.Parser.parse
            (Printf.sprintf
               "SELECT * FROM (a JOIN b ON e0 = r_e0) WHERE e1 IS {%s} AND \
                r_e1 IS {%s} WITH SN > 0.05"
               v v)
        in
        rel_equal (Query.Eval.eval env q) (Query.Plan.eval_optimized env q));
    prop "optimize preserves cascaded selects" ~count:50 seed_arb (fun s ->
        let a = gen_relation s in
        let env = [ ("a", a) ] in
        let rng = R.create (s + 888) in
        let v k = "v" ^ string_of_int (R.int rng k) in
        let q =
          Query.Parser.parse
            (Printf.sprintf
               "SELECT k, e0 FROM (SELECT * FROM a WHERE e0 IS {%s, %s}) \
                WHERE e1 IS {%s} WITH SP >= 0.2"
               (v 8) (v 8) (v 8))
        in
        rel_equal (Query.Eval.eval env q) (Query.Plan.eval_optimized env q)) ]

(* --- numeric representation differential ----------------------------- *)

module Mq = Dst.Mass.Make (Dst.Num.Rational)

let dom70 = G.domain ~size:70 "w"

let dyadic_evidence dom seed =
  (* Random masses in 64ths over random focal sets: exactly convertible
     to rationals, so the two Mass instances must agree to rounding. *)
  let rng = R.create (seed + 909091) in
  let sets =
    List.sort_uniq Vs.compare (List.init 3 (fun _ -> G.vset rng dom ~max_size:3))
  in
  let n = List.length sets in
  let raw = List.init (n - 1) (fun _ -> 1 + R.int rng 16) in
  let used = List.fold_left ( + ) 0 raw in
  let weights = raw @ [ 64 - used ] in
  List.map2 (fun set w -> (set, w)) sets weights

let dyadic_pair dom s =
  let float e = M.make dom (List.map (fun (set, w) -> (set, float_of_int w /. 64.0)) e) in
  let exact e = Mq.make dom (List.map (fun (set, w) -> (set, Qarith.Q.make w 64)) e) in
  let e1 = dyadic_evidence dom s and e2 = dyadic_evidence dom (s + 1) in
  ((float e1, float e2), (exact e1, exact e2))

(* The workload's own shape: Gen.evidence's four focal sets and Ω
   floor, with each mass rounded to 256ths (the last takes the rest) so
   that the bounded rationals of Qarith stay exact. *)
let generated_pair dom s =
  let rng = R.create (s + 31337) in
  let shape () =
    let focals = M.focals (G.evidence rng ~focals:4 ~max_focal_size:3 dom) in
    let n = List.length focals in
    let weights =
      List.mapi
        (fun i (_, x) ->
          if i < n - 1 then 1 + int_of_float (x *. float_of_int (256 - n)) else 0)
        focals
    in
    let used = List.fold_left ( + ) 0 weights in
    List.mapi
      (fun i ((set, _), w) -> (set, if i < n - 1 then w else 256 - used))
      (List.combine focals weights)
  in
  let e1 = shape () and e2 = shape () in
  let float e = M.make dom (List.map (fun (set, w) -> (set, float_of_int w /. 256.0)) e) in
  let exact e = Mq.make dom (List.map (fun (set, w) -> (set, Qarith.Q.make w 256)) e) in
  ((float e1, float e2), (exact e1, exact e2))

(* The stated bound: every mass and κ within 1e-9 of the exact result
   (Num.float_tolerance), over identical focal-set lists. *)
let oracle_agrees ((f1, f2), (q1, q2)) =
  let close x q = Float.abs (x -. Qarith.Q.to_float q) <= 1e-9 in
  match (M.combine_opt f1 f2, Mq.combine_opt q1 q2) with
  | None, None -> true
  | Some (fc, fk), Some (qc, qk) ->
      let ff = M.focals fc and qf = Mq.focals qc in
      close fk qk
      && List.length ff = List.length qf
      && List.for_all2 (fun (s1, x) (s2, q) -> Vs.equal s1 s2 && close x q) ff qf
  | Some _, None | None, Some _ -> false

let differential_props =
  [ prop "float and rational combination agree" ~count:150 seed_arb (fun s ->
        oracle_agrees (dyadic_pair dom8 s));
    prop "float and rational combination agree (70-value frame)" ~count:150
      seed_arb (fun s -> oracle_agrees (dyadic_pair dom70 s));
    prop "float and rational agree on generated four-focal evidence"
      ~count:150 seed_arb (fun s -> oracle_agrees (generated_pair dom8 s));
    prop "float and rational agree on generated four-focal evidence (70-value frame)"
      ~count:150 seed_arb (fun s -> oracle_agrees (generated_pair dom70 s));
    prop "float and rational Bel/Pls agree" ~count:150 seed_arb (fun s ->
        let (f, _), (q, _) = dyadic_pair dom8 s in
        let set = gen_set (s + 5) in
        Float.abs (M.bel f set -. Qarith.Q.to_float (Mq.bel q set)) <= 1e-12
        && Float.abs (M.pls f set -. Qarith.Q.to_float (Mq.pls q set)) <= 1e-12);
    prop "float and rational Bel/Pls agree (70-value frame)" ~count:150 seed_arb
      (fun s ->
        let (f, _), (q, _) = generated_pair dom70 s in
        let set = G.vset (R.create (s + 7919)) dom70 ~max_size:20 in
        Float.abs (M.bel f set -. Qarith.Q.to_float (Mq.bel q set)) <= 1e-12
        && Float.abs (M.pls f set -. Qarith.Q.to_float (Mq.pls q set)) <= 1e-12) ]

(* --- serialization --------------------------------------------------- *)

let io_props =
  [ prop "erd round-trips generated relations" ~count:50 seed_arb (fun s ->
        let r = gen_relation s in
        rel_equal r (Erm.Io.relation_of_string (Erm.Io.to_string r)));
    prop "evidence notation round-trips on representable masses" seed_arb
      (fun s ->
        (* Dyadic masses (multiples of 1/64) print exactly under %g, so
           display output must reparse to an equal evidence set. *)
        let rng = R.create (s + 424243) in
        let sets =
          List.sort_uniq Vs.compare
            (List.init 3 (fun _ -> G.vset rng dom8 ~max_size:3))
        in
        let n = List.length sets in
        let weights = List.init n (fun i -> if i = n - 1 then 0 else 1 + R.int rng 8) in
        let used = List.fold_left ( + ) 0 weights in
        let weights =
          List.mapi (fun i w -> if i = n - 1 then 64 - used else w) weights
        in
        let e =
          M.make dom8
            (List.map2 (fun set w -> (set, float_of_int w /. 64.0)) sets weights)
        in
        M.equal e (Dst.Evidence.of_string dom8 (Dst.Evidence.to_string e))) ]

(* --- extension properties: refinement, rank, summaries, set algebra -- *)

let coarse4 = G.domain ~size:4 "coarse"
let fine12 = G.domain ~size:12 "fine"

let refining =
  Dst.Refinement.make ~coarse:coarse4 ~fine:fine12 (fun v ->
      match v with
      | Dst.Value.String name ->
          let k = int_of_string (String.sub name 1 (String.length name - 1)) in
          Vs.of_strings (List.init 3 (fun i -> "v" ^ string_of_int ((3 * k) + i)))
      | _ -> assert false)

let gen_coarse_evidence seed =
  G.evidence (R.create seed) ~focals:3 ~max_focal_size:2 coarse4

let extension_props =
  [ prop "refine preserves Bel on images" seed_arb (fun s ->
        let m = gen_coarse_evidence s in
        let set = G.vset (R.create (s + 3)) coarse4 ~max_size:3 in
        Float.abs
          (M.bel m set
          -. M.bel (Dst.Refinement.refine refining m)
               (Dst.Refinement.image refining set))
        <= 1e-9);
    prop "refine then coarsen is the identity" seed_arb (fun s ->
        let m = gen_coarse_evidence s in
        M.equal m (Dst.Refinement.coarsen refining (Dst.Refinement.refine refining m)));
    prop "coarsening never loses plausibility" seed_arb (fun s ->
        let fine_m = G.evidence (R.create s) ~focals:4 ~max_focal_size:4 fine12 in
        let set = G.vset (R.create (s + 5)) coarse4 ~max_size:2 in
        M.pls (Dst.Refinement.coarsen refining fine_m) set
        >= M.pls fine_m (Dst.Refinement.image refining set) -. 1e-9);
    prop "top k is a k-subset with maximal membership" seed_arb (fun s ->
        let r = gen_relation s in
        let k = 1 + (s mod 8) in
        let t = Erm.Rank.top k r in
        Erm.Relation.cardinal t = min k (Erm.Relation.cardinal r)
        && Erm.Relation.for_all (fun x -> Erm.Relation.mem r (Erm.Etuple.key x)) t
        &&
        (* every kept tuple dominates every dropped tuple *)
        let dropped = Erm.Ops.difference r t in
        Erm.Relation.for_all
          (fun kept ->
            Erm.Relation.for_all
              (fun drop ->
                Dst.Support.compare (Erm.Etuple.tm kept) (Erm.Etuple.tm drop)
                >= 0)
              dropped)
          t);
    prop "cardinality interval brackets the tuple count" seed_arb (fun s ->
        let r = gen_relation s in
        let sn, sp = Erm.Summarize.cardinality_interval r in
        let n = float_of_int (Erm.Relation.cardinal r) in
        0.0 <= sn && sn <= sp +. 1e-9 && sp <= n +. 1e-9);
    prop "count_where is bounded by the cardinality interval" seed_arb
      (fun s ->
        let r = gen_relation s in
        let csn, csp = Erm.Summarize.count_where (gen_predicate s) r in
        let rsn, rsp = Erm.Summarize.cardinality_interval r in
        ignore rsn;
        csn <= csp +. 1e-9 && csp <= rsp +. 1e-9);
    prop "difference and intersection partition the union" seed_arb (fun s ->
        let a, b = gen_pair s in
        Erm.Relation.cardinal (Erm.Ops.union a b)
        = Erm.Relation.cardinal (Erm.Ops.intersection a b)
          + Erm.Relation.cardinal (Erm.Ops.difference a b)
          + Erm.Relation.cardinal (Erm.Ops.difference b a));
    prop "intersection commutes" seed_arb (fun s ->
        let a, b = gen_pair s in
        rel_equal (Erm.Ops.intersection a b) (Erm.Ops.intersection b a));
    prop "incremental absorb equals extended union" seed_arb (fun s ->
        let a, b = gen_pair s in
        rel_equal (Erm.Ops.union a b)
          (Integration.Incremental.relation
             (Integration.Incremental.absorb
                (Integration.Incremental.of_relation a)
                b)));
    prop "focal approximation error is bounded by the dropped mass"
      ~count:150 seed_arb
      (fun s ->
        let m = G.evidence (R.create s) ~focals:6 ~max_focal_size:3 dom8 in
        let a = M.approximate ~max_focals:3 m in
        let omega = D.values dom8 in
        let dropped = M.mass a omega -. M.mass m omega in
        let set = gen_set (s + 23) in
        M.bel m set -. M.bel a set <= dropped +. 1e-9
        && M.pls a set -. M.pls m set <= dropped +. 1e-9
        && M.bel a set <= M.bel m set +. 1e-9
        && M.pls a set >= M.pls m set -. 1e-9);
    prop "discounted relations always union without conflict" ~count:50
      seed_arb
      (fun s ->
        (* Even artificially conflicting sources merge once discounted. *)
        let a = gen_relation ~size:8 s in
        let b =
          G.reobserve (R.create (s + 3)) a
        in
        let report =
          Integration.Reliability.merge_discounted ~alpha_left:0.9
            ~alpha_right:0.9 a b
        in
        report.Integration.Merge.conflicts = []
        && Erm.Relation.cardinal report.integrated = Erm.Relation.cardinal a) ]

(* --- §1.3 refinement relationships with the baselines ----------------- *)

(* Relations with fully certain membership isolate the attribute-level
   comparison (the baselines have no membership concept). *)
let gen_certain_relation seed =
  let rng = R.create (seed + 7177) in
  Erm.Relation.fold
    (fun t acc ->
      Erm.Relation.add acc (Erm.Etuple.with_tm Dst.Support.certain t))
    (G.relation rng ~size:10 schema)
    (Erm.Relation.empty schema)

let baseline_props =
  [ prop "DeMichiel's True set = the sn=1 answers" ~count:100 seed_arb
      (fun s ->
        let r = gen_certain_relation s in
        let set = G.vset (R.create (s + 11)) dom8 ~max_size:3 in
        let ds_true =
          Erm.Ops.select ~threshold:Erm.Threshold.certain_only
            (Erm.Predicate.is_ "e0" set) r
        in
        let pv = Baselines.Partial_value.relation_of_extended r in
        let true_t, _ = Baselines.Partial_value.select_is pv "e0" set in
        Erm.Relation.cardinal ds_true = List.length true_t
        && List.for_all
             (fun (t : Baselines.Partial_value.tuple) ->
               Erm.Relation.mem ds_true [ t.key ])
             true_t);
    prop "DeMichiel's True ∪ Maybe = the Pls>0 tuples (via F_SS)" ~count:100
      seed_arb
      (fun s ->
        (* Note CWA_ER: σ̂ itself can never *return* a pure may-be tuple
           (its revised sn would be 0), which is exactly why DeMichiel
           needs a second result set and the paper does not — the
           comparison must go through F_SS directly. *)
        let r = gen_certain_relation s in
        let schema' = Erm.Relation.schema r in
        let set = G.vset (R.create (s + 13)) dom8 ~max_size:3 in
        let possible =
          Erm.Relation.fold
            (fun t n ->
              let support =
                Erm.Predicate.eval schema' t (Erm.Predicate.Is ("e0", set))
              in
              if Dst.Support.sp support > 1e-12 then n + 1 else n)
            r 0
        in
        let pv = Baselines.Partial_value.relation_of_extended r in
        let true_t, maybe_t = Baselines.Partial_value.select_is pv "e0" set in
        possible = List.length true_t + List.length maybe_t);
    prop "σ̂'s answers sit between DeMichiel's True and True ∪ Maybe"
      ~count:100 seed_arb
      (fun s ->
        let r = gen_certain_relation s in
        let set = G.vset (R.create (s + 13)) dom8 ~max_size:3 in
        let answers =
          Erm.Ops.select (Erm.Predicate.is_ "e0" set) r
        in
        let pv = Baselines.Partial_value.relation_of_extended r in
        let true_t, maybe_t = Baselines.Partial_value.select_is pv "e0" set in
        List.length true_t <= Erm.Relation.cardinal answers
        && Erm.Relation.cardinal answers
           <= List.length true_t + List.length maybe_t
        && List.for_all
             (fun (t : Baselines.Partial_value.tuple) ->
               Erm.Relation.mem answers [ t.key ])
             true_t);
    prop "Tseng's probability lies in the belief interval" ~count:100
      seed_arb
      (fun s ->
        let r = gen_certain_relation s in
        let set = G.vset (R.create (s + 17)) dom8 ~max_size:3 in
        let ppv = Baselines.Prob_partial.relation_of_extended r in
        let schema' = Erm.Relation.schema r in
        List.for_all
          (fun (t : Baselines.Prob_partial.tuple) ->
            let e =
              Erm.Etuple.evidence schema'
                (Erm.Relation.find r [ t.key ])
                "e0"
            in
            let bel, pls = M.interval e set in
            let p = Baselines.Prob_partial.prob_in (List.assoc "e0" t.cells) set in
            bel -. 1e-9 <= p && p <= pls +. 1e-9)
          (List.filter (fun (t : Baselines.Prob_partial.tuple) ->
               Erm.Relation.mem r [ t.key ]) ppv));
    prop "Lee's select intervals = F_SS before membership" ~count:100
      seed_arb
      (fun s ->
        let r = gen_certain_relation s in
        let set = G.vset (R.create (s + 19)) dom8 ~max_size:3 in
        let lee = Baselines.Lee.of_extended r in
        let schema' = Erm.Relation.schema r in
        List.for_all
          (fun ((t : Baselines.Lee.tuple), (bel, pls)) ->
            let support =
              Erm.Predicate.eval schema'
                (Erm.Relation.find r [ t.key ])
                (Erm.Predicate.Is ("e0", set))
            in
            Float.abs (bel -. Dst.Support.sn support) <= 1e-9
            && Float.abs (pls -. Dst.Support.sp support) <= 1e-9)
          (Baselines.Lee.select lee "e0" set));
    prop "federated approximation stays CWA-sound" ~count:50 seed_arb
      (fun s ->
        (* Even without a threshold the two strategies may disagree on
           borderline keys (Bel can drop under combination), so the law
           is soundness, not key-set equality. *)
        let a, b = gen_pair s in
        let c = Integration.Federated.compare (gen_predicate s) a b in
        Erm.Relation.satisfies_cwa c.approximate
        && Erm.Relation.satisfies_cwa c.reference) ]

let () =
  Alcotest.run "properties"
    [ ("mass", mass_props);
      ("combination", combine_props);
      ("support", support_props);
      ("closure", closure_props);
      ("boundedness", boundedness_props);
      ("operator-laws", operator_props);
      ("optimizer", plan_props);
      ("serialization", io_props);
      ("numeric-differential", differential_props);
      ("extensions", extension_props);
      ("baseline-refinement", baseline_props) ]
