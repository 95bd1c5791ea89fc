(* The five extended operators of §3 on small hand-built relations:
   selection supports (is- and θ-predicates, including the paper's
   §3.1.1 inline example), thresholds, union corner cases and conflict
   reporting, product, join, and the select-over-product ≡ join law. *)

module V = Dst.Value
module Vs = Dst.Vset
module D = Dst.Domain
module M = Dst.Mass.F
module S = Dst.Support
module P = Erm.Predicate

let feq = Alcotest.float 1e-9
let sup = Alcotest.testable S.pp S.equal

let colors = D.of_strings "color" [ "red"; "green"; "blue" ]
let sizes = D.of_values "size" [ V.int 1; V.int 2; V.int 4; V.int 5; V.int 6 ]

let schema =
  Erm.Schema.make ~name:"boxes"
    ~key:[ Erm.Attr.definite "id" "string" ]
    ~nonkey:
      [ Erm.Attr.definite "shelf" "string";
        Erm.Attr.evidential "color" colors;
        Erm.Attr.evidential "size" sizes ]

let box ?(tm = S.certain) ?(shelf = "s1") id color size =
  Erm.Etuple.make schema
    ~key:[ V.string id ]
    ~cells:
      [ Erm.Etuple.Definite (V.string shelf);
        Erm.Etuple.Evidence (Dst.Evidence.of_string colors color);
        Erm.Etuple.Evidence (Dst.Evidence.of_string sizes size) ]
    ~tm

let boxes =
  Erm.Relation.of_tuples schema
    [ box "b1" "[red^0.6; ~^0.4]" "[1^1]";
      box "b2" ~shelf:"s2" "[green^1]" "[{1,4}^0.6; {2,6}^0.4]";
      box ~tm:(S.make ~sn:0.5 ~sp:0.8) "b3" "[blue^0.5; green^0.5]" "[5^1]" ]

let find r id = Erm.Relation.find r [ V.string id ]
let tm_of r id = Erm.Etuple.tm (find r id)

(* --- Selection ------------------------------------------------------ *)

let test_select_is () =
  let r = Erm.Ops.select (P.is_values "color" [ "red" ]) boxes in
  (* b1: Bel = 0.6, Pls = 1; b2 and b3 have Bel = 0 -> dropped. *)
  Alcotest.(check int) "only b1 survives" 1 (Erm.Relation.cardinal r);
  Alcotest.check sup "b1 membership" (S.make ~sn:0.6 ~sp:1.0) (tm_of r "b1")

let test_select_retains_original_cells () =
  (* Footnote 4: selection does not modify attribute values. *)
  let r = Erm.Ops.select (P.is_values "color" [ "red" ]) boxes in
  Alcotest.(check bool)
    "cells unchanged" true
    (List.for_all2 Erm.Etuple.cell_equal
       (Erm.Etuple.cells (find r "b1"))
       (Erm.Etuple.cells (find boxes "b1")))

let test_select_on_definite_attr () =
  let r =
    Erm.Ops.select
      (P.is_ "shelf" (Vs.of_strings [ "s2" ]))
      boxes
  in
  Alcotest.(check int) "definite match is crisp" 1 (Erm.Relation.cardinal r);
  Alcotest.check sup "full certainty" S.certain (tm_of r "b2")

let test_select_threshold () =
  let pred = P.is_values "color" [ "green"; "blue" ] in
  let all = Erm.Ops.select pred boxes in
  Alcotest.(check int) "b2 and b3" 2 (Erm.Relation.cardinal all);
  let strict =
    Erm.Ops.select ~threshold:(Erm.Threshold.sn_ge 0.9) pred boxes
  in
  Alcotest.(check int) "sn >= 0.9 keeps only b2" 1
    (Erm.Relation.cardinal strict);
  let certain = Erm.Ops.select ~threshold:Erm.Threshold.certain_only pred boxes in
  Alcotest.(check int) "sn = 1 keeps only b2" 1 (Erm.Relation.cardinal certain);
  let sp_cap =
    Erm.Ops.select ~threshold:(Erm.Threshold.sp_ge 0.9) pred boxes
  in
  Alcotest.(check int) "sp >= 0.9" 1 (Erm.Relation.cardinal sp_cap)

let test_select_theta_paper_example () =
  (* §3.1.1: [{1,4}^0.6; {2,6}^0.4] θ [{2,4}^0.8; 5^0.2]. Under the
     formal ∀∀ definition, ≤ gives (0.12, 1); under the ∀∃ reading the
     paper's printed (0.6, 1) follows. Both are implemented. *)
  let a =
    P.Const
      (Erm.Etuple.Evidence
         (Dst.Evidence.of_string sizes "[{1,4}^0.6; {2,6}^0.4]"))
  in
  let b =
    P.Const
      (Erm.Etuple.Evidence (Dst.Evidence.of_string sizes "[{2,4}^0.8; 5^0.2]"))
  in
  let t = find boxes "b1" in
  let forall_forall = P.eval schema t (P.theta P.Le a b) in
  Alcotest.check sup "formal definition: (0.12, 1)" (S.make ~sn:0.12 ~sp:1.0)
    forall_forall;
  let forall_exists = P.eval schema t (P.theta_fe P.Le a b) in
  Alcotest.check sup "paper's worked numbers: (0.6, 1)"
    (S.make ~sn:0.6 ~sp:1.0) forall_exists

let test_select_theta_between_attrs () =
  (* b2's size [{1,4}^0.6; {2,6}^0.4] = 4 against a constant. *)
  let pred = P.theta P.Eq (P.Field "size") (P.Const (Erm.Etuple.Definite (V.int 1))) in
  let r = Erm.Ops.select pred boxes in
  (* b1: size {1} = 1 definitely (sn=1). b2: {1,4} =? {1}: not forall;
     exists -> sp 0.6. sn=0 -> dropped. *)
  Alcotest.(check int) "b1 only" 1 (Erm.Relation.cardinal r);
  Alcotest.check sup "b1 crisp" S.certain (tm_of r "b1")

let test_select_theta_type_mismatch () =
  let pred =
    P.theta P.Lt (P.Field "size") (P.Const (Erm.Etuple.Definite (V.string "x")))
  in
  Alcotest.(check bool)
    "ordered θ across kinds raises" true
    (match Erm.Ops.select pred boxes with
    | _ -> false
    | exception V.Type_mismatch _ -> true);
  (* Equality across kinds is just false, not an error. *)
  let eq_pred =
    P.theta P.Eq (P.Field "size") (P.Const (Erm.Etuple.Definite (V.string "x")))
  in
  Alcotest.(check int) "= across kinds selects nothing" 0
    (Erm.Relation.cardinal (Erm.Ops.select eq_pred boxes))

let test_select_compound () =
  (* The size domain holds ints, so the is-set must too. *)
  let pred =
    P.(is_values "color" [ "red" ] &&& is_ "size" (Vs.of_list [ V.int 1 ]))
  in
  let r = Erm.Ops.select pred boxes in
  Alcotest.check sup "multiplicative supports: (0.6·1, 1·1)"
    (S.make ~sn:0.6 ~sp:1.0) (tm_of r "b1")

let test_select_or_not_extensions () =
  let p_red = P.is_values "color" [ "red" ] in
  let t = find boxes "b1" in
  let s_or = P.eval schema t P.(p_red ||| p_red) in
  Alcotest.check sup "or of (0.6,1) with itself" (S.make ~sn:0.84 ~sp:1.0) s_or;
  let s_not = P.eval schema t (P.not_ p_red) in
  Alcotest.check sup "not (0.6,1) = (0, 0.4)" (S.make ~sn:0.0 ~sp:0.4) s_not;
  Alcotest.(check bool) "paper_fragment flags extensions" false
    (P.paper_fragment (P.not_ p_red));
  Alcotest.(check bool) "conjunctions are in the paper fragment" true
    (P.paper_fragment P.(p_red &&& p_red))

let test_select_unknown_attr () =
  Alcotest.(check bool)
    "unknown attribute raises" true
    (match Erm.Ops.select (P.is_values "wheels" [ "x" ]) boxes with
    | _ -> false
    | exception P.Predicate_error _ -> true)

(* --- Projection ----------------------------------------------------- *)

let test_project () =
  let r = Erm.Ops.project [ "id"; "color" ] boxes in
  Alcotest.(check int) "all tuples kept" 3 (Erm.Relation.cardinal r);
  Alcotest.(check int) "narrowed arity" 2
    (Erm.Schema.arity (Erm.Relation.schema r));
  Alcotest.check sup "membership retained"
    (S.make ~sn:0.5 ~sp:0.8) (tm_of r "b3");
  Alcotest.(check bool)
    "projecting away the key is an error" true
    (match Erm.Ops.project [ "color" ] boxes with
    | _ -> false
    | exception Erm.Schema.Schema_error _ -> true)

(* --- Union ---------------------------------------------------------- *)

let other_boxes =
  Erm.Relation.of_tuples
    (Erm.Schema.rename_relation "boxes2" schema)
    [ box "b1" "[red^0.5; green^0.5]" "[1^1]";
      box ~tm:(S.make ~sn:0.9 ~sp:1.0) "b9" "[blue^1]" "[6^1]" ]

let test_union_merges_and_passes_through () =
  let u = Erm.Ops.union boxes other_boxes in
  Alcotest.(check int) "b1 merged, b2 b3 b9 pass through" 4
    (Erm.Relation.cardinal u);
  (* b1 color: [red^.6, Ω^.4] ⊕ [red^.5, green^.5]:
     red .3+.2=.5, green .2, κ=.3 -> red 5/7, green 2/7. *)
  let color = Erm.Etuple.evidence schema (find u "b1") "color" in
  Alcotest.check feq "red 5/7" (5.0 /. 7.0)
    (M.mass color (Vs.of_strings [ "red" ]));
  Alcotest.check feq "green 2/7" (2.0 /. 7.0)
    (M.mass color (Vs.of_strings [ "green" ]));
  (* Pass-through tuples keep their membership. *)
  Alcotest.check sup "b9 untouched" (S.make ~sn:0.9 ~sp:1.0) (tm_of u "b9");
  Alcotest.check sup "b3 untouched" (S.make ~sn:0.5 ~sp:0.8) (tm_of u "b3")

let test_union_incompatible () =
  let other =
    Erm.Relation.empty
      (Erm.Schema.make ~name:"x"
         ~key:[ Erm.Attr.definite "id" "string" ]
         ~nonkey:[])
  in
  Alcotest.(check bool)
    "incompatible schemas rejected" true
    (match Erm.Ops.union boxes other with
    | _ -> false
    | exception Erm.Ops.Incompatible_schemas _ -> true)

let test_union_total_conflict_raises () =
  let a = Erm.Relation.of_tuples schema [ box "k" "[red^1]" "[1^1]" ] in
  let b = Erm.Relation.of_tuples schema [ box "k" "[green^1]" "[1^1]" ] in
  Alcotest.check_raises "raises Total_conflict" M.Total_conflict (fun () ->
      ignore (Erm.Ops.union a b))

let test_union_report () =
  let a =
    Erm.Relation.of_tuples schema
      [ box "good" "[red^0.5; ~^0.5]" "[1^1]";
        box "bad" "[red^1]" "[1^1]";
        box "worse" ~shelf:"s1" "[red^1]" "[1^1]" ]
  in
  let b =
    Erm.Relation.of_tuples schema
      [ box "good" "[red^0.8; ~^0.2]" "[1^1]";
        box "bad" "[green^1]" "[1^1]";
        box "worse" ~shelf:"s9" "[red^1]" "[1^1]" ]
  in
  let result, conflicts = Erm.Ops.union_report a b in
  Alcotest.(check int) "only the clean pair merges" 1
    (Erm.Relation.cardinal result);
  Alcotest.(check int) "two conflicts reported" 2 (List.length conflicts);
  let attrs =
    List.filter_map (fun c -> c.Erm.Ops.conflict_attr) conflicts
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    "conflicts name their columns" [ "color"; "shelf" ] attrs

let test_union_associative () =
  let third =
    Erm.Relation.of_tuples schema
      [ box "b1" "[red^0.7; ~^0.3]" "[1^1]"; box "b7" "[green^1]" "[2^1]" ]
  in
  Alcotest.(check bool)
    "(a ∪ b) ∪ c = a ∪ (b ∪ c)" true
    (Erm.Relation.equal
       (Erm.Ops.union (Erm.Ops.union boxes other_boxes) third)
       (Erm.Ops.union boxes (Erm.Ops.union other_boxes third)))

(* --- Product and join ----------------------------------------------- *)

let shelves_schema =
  Erm.Schema.make ~name:"shelves"
    ~key:[ Erm.Attr.definite "sid" "string" ]
    ~nonkey:[ Erm.Attr.definite "room" "string" ]

let shelves =
  Erm.Relation.of_tuples shelves_schema
    [ Erm.Etuple.make shelves_schema ~key:[ V.string "s1" ]
        ~cells:[ Erm.Etuple.Definite (V.string "attic") ]
        ~tm:S.certain;
      Erm.Etuple.make shelves_schema ~key:[ V.string "s2" ]
        ~cells:[ Erm.Etuple.Definite (V.string "cellar") ]
        ~tm:(S.make ~sn:0.5 ~sp:1.0) ]

let test_product () =
  let p = Erm.Ops.product boxes shelves in
  Alcotest.(check int) "3 x 2 pairs" 6 (Erm.Relation.cardinal p);
  Alcotest.(check int) "key concatenation" 2
    (Erm.Schema.key_arity (Erm.Relation.schema p));
  (* Membership multiplies: b3 (0.5, 0.8) x s2 (0.5, 1). *)
  let t = Erm.Relation.find p [ V.string "b3"; V.string "s2" ] in
  Alcotest.check sup "F_TM" (S.make ~sn:0.25 ~sp:0.8) (Erm.Etuple.tm t)

let test_join_equals_select_product () =
  let pred =
    P.theta P.Eq (P.Field "shelf") (P.Field "sid")
  in
  let joined = Erm.Ops.join pred boxes shelves in
  let via_product = Erm.Ops.select pred (Erm.Ops.product boxes shelves) in
  Alcotest.(check bool) "⋈ = σ∘× (§3.5)" true
    (Erm.Relation.equal joined via_product);
  Alcotest.(check int) "each box meets its shelf" 3
    (Erm.Relation.cardinal joined)

let test_join_threshold () =
  let pred = P.theta P.Eq (P.Field "shelf") (P.Field "sid") in
  let strict =
    Erm.Ops.join ~threshold:Erm.Threshold.certain_only pred boxes shelves
  in
  (* b1-s1 is (1,1); b2-s2 is (0.5,1); b3-s1 is (0.5,0.8). *)
  Alcotest.(check int) "only fully certain pairs" 1
    (Erm.Relation.cardinal strict)

let test_rename_attrs_op () =
  let r = Erm.Ops.rename_attrs (fun n -> "x_" ^ n) boxes in
  Alcotest.(check bool) "renamed schema" true
    (Erm.Schema.mem (Erm.Relation.schema r) "x_color");
  Alcotest.(check int) "tuples preserved" 3 (Erm.Relation.cardinal r)

let test_intersect_keys () =
  let keys = Erm.Ops.intersect_keys boxes other_boxes in
  Alcotest.(check int) "one shared key" 1 (List.length keys)

(* --- Relation.merge and map_tuples against association lists ------ *)

(* Each side is an ascending association list from key to tuple over the
   keys k00 … k15, about half of them bound. Roughly one tuple in six is
   a complement tuple (sn = 0), so the relations are built with the
   [_unchecked] constructor. A [hostile] side also disagrees on definite
   cells and drops Gen's Ω floor, so pairs can conflict totally; the
   others only trip the quarantine policy below. *)
module Rng = Workload.Rng

let dframe = Workload.Gen.domain ~size:3 "dc"

let dschema =
  Erm.Schema.make ~name:"diff"
    ~key:[ Erm.Attr.definite "k" "string" ]
    ~nonkey:[ Erm.Attr.definite "a" "string"; Erm.Attr.evidential "e" dframe ]

let gen_side rng ~hostile =
  List.filter_map
    (fun i ->
      if Rng.bool rng then None
      else
        let key = Printf.sprintf "k%02d" i in
        let tm =
          if Rng.int rng 6 = 0 then S.make ~sn:0.0 ~sp:(0.2 +. Rng.float rng 0.8)
          else Workload.Gen.support rng
        in
        let a = if hostile && Rng.int rng 4 = 0 then "y" else "x" in
        let e =
          Workload.Gen.evidence rng ~focals:2 ~max_focal_size:2
            ~omega_floor:(if hostile then 0.0 else 0.05)
            dframe
        in
        Some
          ( key,
            Erm.Etuple.make dschema ~key:[ V.string key ]
              ~cells:[ Erm.Etuple.Definite (V.string a); Erm.Etuple.Evidence e ]
              ~tm ))
    (List.init 16 Fun.id)

let gen_sides ~hostile seed =
  let rng = Rng.create seed in
  let a = gen_side rng ~hostile in
  (a, gen_side rng ~hostile)

let relation_of side =
  Erm.Relation.of_tuples_unchecked dschema
    (Rng.shuffle (Rng.create (List.length side)) (List.map snd side))

let quarantine =
  Dst.Rule.make
    ~escalation:(Dst.Rule.escalate ~kappa0:0.3 Dst.Rule.Quarantine)
    Dst.Rule.Dempster

(* The naive reference: visit every key of either side in ascending
   order, apply [f] to its two optional tuples and keep sn > 0 results. *)
let reference f a b =
  List.sort_uniq String.compare (List.map fst a @ List.map fst b)
  |> List.filter_map (fun k ->
         match f (List.assoc_opt k a) (List.assoc_opt k b) with
         | Some t when S.positive (Erm.Etuple.tm t) -> Some t
         | Some _ | None -> None)

let merge_pair x y =
  match
    Erm.Etuple.combine_with
      ~combine_evidence:(M.combine_policy_exn ~policy:quarantine)
      dschema x y
  with
  | m -> Some m
  | exception M.Quarantined_cell _ -> None

let union_ref =
  reference (fun x y ->
      match (x, y) with
      | Some x, Some y -> merge_pair x y
      | Some t, None | None, Some t -> Some t
      | None, None -> None)

let same_tuples r expected =
  List.equal Erm.Etuple.equal (Erm.Relation.tuples r) expected

let algebra_prop name law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:200 (QCheck.int_range 0 1_000_000) law)

let ascending keys = List.sort compare keys = keys

let algebra_props =
  [ algebra_prop "union, memoized union = association-list union" (fun seed ->
        let a, b = gen_sides ~hostile:false seed in
        let ra = relation_of a and rb = relation_of b in
        (* A scan drops sn = 0 tuples before the union sees them; the
           second run is served by the context's union memo. *)
        let positive =
          List.filter (fun (_, t) -> S.positive (Erm.Etuple.tm t))
        in
        let scanned = union_ref (positive a) (positive b) in
        let ctx = Query.Physical.create_ctx () in
        let memoized () =
          Dst.Rule.with_policy quarantine (fun () ->
              Query.Physical.run ~ctx [ ("a", ra); ("b", rb) ] "a UNION b")
        in
        same_tuples (Erm.Ops.union ~policy:quarantine ra rb) (union_ref a b)
        && same_tuples (memoized ()) scanned
        && same_tuples (memoized ()) scanned);
    algebra_prop "intersection = association-list intersection" (fun seed ->
        let a, b = gen_sides ~hostile:false seed in
        let expected =
          reference
            (fun x y ->
              match (x, y) with
              | Some x, Some y -> merge_pair x y
              | _ -> None)
            a b
        in
        same_tuples
          (Erm.Ops.intersection ~policy:quarantine (relation_of a)
             (relation_of b))
          expected);
    algebra_prop "difference = association-list difference" (fun seed ->
        let a, b = gen_sides ~hostile:true seed in
        let expected =
          reference
            (fun x y -> match (x, y) with Some x, None -> Some x | _ -> None)
            a b
        in
        same_tuples (Erm.Ops.difference (relation_of a) (relation_of b))
          expected);
    algebra_prop "union_report = reference, conflicts in key order"
      (fun seed ->
        let a, b = gen_sides ~hostile:true seed in
        let conflicts = ref [] in
        let record key attr detail =
          conflicts :=
            { Erm.Ops.conflict_key = key;
              conflict_attr = attr;
              conflict_detail = detail }
            :: !conflicts
        in
        let expected =
          reference
            (fun x y ->
              match (x, y) with
              | Some x, Some y ->
                  Erm.Ops.merge_report ~policy:quarantine dschema ~record x y
              | Some t, None | None, Some t -> Some t
              | None, None -> None)
            a b
        in
        let r, cs =
          Erm.Ops.union_report ~policy:quarantine (relation_of a)
            (relation_of b)
        in
        same_tuples r expected
        && cs = List.rev !conflicts
        && ascending (List.map (fun c -> c.Erm.Ops.conflict_key) cs));
    algebra_prop "Relation.merge calls f once per key, ascending"
      (fun seed ->
        let a, b = gen_sides ~hostile:true seed in
        let seen = ref [] in
        let merged =
          Erm.Relation.merge
            (fun x y ->
              let t = Option.get (if Option.is_some x then x else y) in
              seen := Erm.Etuple.key t :: !seen;
              y)
            dschema (relation_of a) (relation_of b)
        in
        List.rev !seen
        = List.map
            (fun k -> [ V.string k ])
            (List.sort_uniq String.compare (List.map fst a @ List.map fst b))
        && same_tuples merged
             (reference (fun _ y -> y) a b)) ]

let test_map_tuples_key_order () =
  let a, _ = gen_sides ~hostile:false 42 in
  let seen = ref [] in
  let r =
    Erm.Relation.map_tuples
      (fun t ->
        seen := Erm.Etuple.key t :: !seen;
        Some t)
      dschema (relation_of a)
  in
  Alcotest.(check bool) "every tuple visited, ascending" true
    (List.rev !seen = List.map (fun (k, _) -> [ V.string k ]) a);
  Alcotest.(check bool) "sn = 0 tuples dropped" true
    (Erm.Relation.satisfies_cwa r)

let test_key_change_rejected () =
  let rekey t =
    Erm.Etuple.make schema ~key:[ V.string "zz" ] ~cells:(Erm.Etuple.cells t)
      ~tm:(Erm.Etuple.tm t)
  in
  let raises name f =
    Alcotest.(check bool) name true
      (match f () with
      | _ -> false
      | exception Erm.Relation.Relation_error _ -> true)
  in
  raises "map_tuples" (fun () ->
      Erm.Relation.map_tuples (fun t -> Some (rekey t)) schema boxes);
  raises "merge" (fun () ->
      Erm.Relation.merge
        (fun x _ -> Option.map rekey x)
        schema boxes other_boxes)

let () =
  Alcotest.run "ops"
    [ ( "select",
        [ Alcotest.test_case "is-predicate" `Quick test_select_is;
          Alcotest.test_case "original cells retained" `Quick
            test_select_retains_original_cells;
          Alcotest.test_case "definite attributes" `Quick
            test_select_on_definite_attr;
          Alcotest.test_case "thresholds" `Quick test_select_threshold;
          Alcotest.test_case "θ paper example (both semantics)" `Quick
            test_select_theta_paper_example;
          Alcotest.test_case "θ against constants" `Quick
            test_select_theta_between_attrs;
          Alcotest.test_case "θ type mismatch" `Quick
            test_select_theta_type_mismatch;
          Alcotest.test_case "compound predicates" `Quick test_select_compound;
          Alcotest.test_case "or/not extensions" `Quick
            test_select_or_not_extensions;
          Alcotest.test_case "unknown attribute" `Quick
            test_select_unknown_attr ] );
      ("project", [ Alcotest.test_case "projection" `Quick test_project ]);
      ( "relation-merge",
        algebra_props
        @ [ Alcotest.test_case "map_tuples visits keys in order" `Quick
              test_map_tuples_key_order;
            Alcotest.test_case "key-changing map rejected" `Quick
              test_key_change_rejected ] );
      ( "union",
        [ Alcotest.test_case "merge and pass-through" `Quick
            test_union_merges_and_passes_through;
          Alcotest.test_case "incompatible schemas" `Quick
            test_union_incompatible;
          Alcotest.test_case "total conflict raises" `Quick
            test_union_total_conflict_raises;
          Alcotest.test_case "union_report" `Quick test_union_report;
          Alcotest.test_case "associativity" `Quick test_union_associative ] );
      ( "product-join",
        [ Alcotest.test_case "product" `Quick test_product;
          Alcotest.test_case "join = select of product" `Quick
            test_join_equals_select_product;
          Alcotest.test_case "join threshold" `Quick test_join_threshold;
          Alcotest.test_case "rename" `Quick test_rename_attrs_op;
          Alcotest.test_case "intersect_keys" `Quick test_intersect_keys ] ) ]
