exception Incompatible_schemas of string

type conflict = {
  conflict_key : Dst.Value.t list;
  conflict_attr : string option;
  conflict_detail : string;
}

(* Results of extended operators store only sn > 0 tuples (closure,
   §3.6); complement tuples flowing through are silently dropped, which
   is what makes the boundedness property hold. *)
let add_if_positive acc t =
  if Dst.Support.positive (Etuple.tm t) then Relation.add acc t else acc

let select ?(threshold = Threshold.always) pred r =
  let schema = Relation.schema r in
  let pred = Predicate.compile schema pred in
  let step tuple =
    let support = Predicate.eval_compiled pred tuple in
    let tm = Dst.Support.f_tm (Etuple.tm tuple) support in
    if Threshold.satisfies threshold tm then begin
      let out = Etuple.with_tm tm tuple in
      (* A crisp-true support leaves the membership bit-identical: no
         new value is derived, so nothing is recorded — which is also
         what makes lineage plan-invariant when a physical plan inserts
         no-op selections (e.g. scan wrappers) naive evaluation lacks. *)
      if
        Obs.Provenance.on ()
        && not
             (Float.equal (Dst.Support.sn tm)
                (Dst.Support.sn (Etuple.tm tuple))
             && Float.equal (Dst.Support.sp tm)
                  (Dst.Support.sp (Etuple.tm tuple)))
      then
        Lineage.record_support ~label:"select" ~support ~inputs:[ tuple ] out;
      Some out
    end
    else None
  in
  (* map_tuples drops any surviving tuple with sn = 0 (closure). *)
  Relation.map_tuples step schema r

let project names r =
  let schema = Schema.project (Relation.schema r) names in
  Relation.map_tuples
    (fun t -> Some (Etuple.project (Relation.schema r) t names))
    schema r

let check_union_compatible a b =
  if not (Schema.union_compatible (Relation.schema a) (Relation.schema b))
  then
    raise
      (Incompatible_schemas
         (Format.asprintf "%s and %s are not union-compatible"
            (Schema.name (Relation.schema a))
            (Schema.name (Relation.schema b))))

(* Shared union skeleton: [merge] decides what happens to key-matched
   pairs (raise, or record a conflict and drop). Relation.merge calls it
   in ascending key order, keeps single-source tuples as they are and
   drops sn = 0 results. *)
let union_with merge a b =
  check_union_compatible a b;
  Relation.merge
    (fun x y ->
      match (x, y) with
      | Some ta, Some tb -> merge ta tb
      | Some t, None | None, Some t -> Some t
      | None, None -> None)
    (Relation.schema a) a b

let merged_with_lineage x y m =
  if Obs.Provenance.on () then Lineage.record_merge x y m;
  Some m

(* A quarantined cell (κ-escalation with a Quarantine fallback) drops
   the matched pair, exactly as a total conflict does on the reporting
   paths — the non-reporting operators stay deterministic and agree
   with union_report's kept set, which the conformance harness
   compares bit for bit across surfaces. *)
let union ?policy a b =
  let schema = Relation.schema a in
  union_with
    (fun x y ->
      match
        Etuple.combine_with
          ~combine_evidence:(Dst.Mass.F.combine_policy_exn ?policy)
          schema x y
      with
      | m -> merged_with_lineage x y m
      | exception Dst.Mass.F.Quarantined_cell _ -> None)
    a b

(* Attribute-by-attribute merge so a conflict can name its column. The
   incremental store's delta fold shares this function so its per-key
   outcome (merged tuple, or conflict recorded and pair dropped) is
   bit-identical to union_report's. *)
let merge_report ?policy schema ~record x y =
  let policy =
    match policy with Some p -> p | None -> Dst.Rule.current ()
  in
  let key = Etuple.key x in
  let exception Bail in
  try
    let cells =
      List.map2
        (fun attr (cx, cy) ->
          match (cx, cy) with
          | Etuple.Definite v, Etuple.Definite w ->
              if Dst.Value.equal v w then Etuple.Definite v
              else begin
                record key
                  (Some (Attr.name attr))
                  (Format.asprintf "definite values disagree: %a vs %a"
                     Dst.Value.pp v Dst.Value.pp w);
                raise Bail
              end
          | Etuple.Evidence e, Etuple.Evidence f -> (
              match Dst.Mass.F.combine_policy ~policy e f with
              | Dst.Mass.F.Combined { result = m; _ } -> Etuple.Evidence m
              | Dst.Mass.F.Conflicted ->
                  record key
                    (Some (Attr.name attr))
                    "total conflict (kappa = 1) between evidence sets";
                  raise Bail
              | Dst.Mass.F.Quarantined { kappa } ->
                  record key
                    (Some (Attr.name attr))
                    (Format.asprintf
                       "quarantined: kappa = %g at or above rule threshold"
                       kappa);
                  raise Bail)
          | Etuple.Definite _, Etuple.Evidence _
          | Etuple.Evidence _, Etuple.Definite _ ->
              record key (Some (Attr.name attr)) "cell kinds disagree";
              raise Bail)
        (Schema.nonkey schema)
        (List.combine (Etuple.cells x) (Etuple.cells y))
    in
    let tm =
      try Dst.Support.combine (Etuple.tm x) (Etuple.tm y)
      with Dst.Mass.F.Total_conflict ->
        record key None "membership evidence in total conflict";
        raise Bail
    in
    let m = Etuple.make schema ~key ~cells ~tm in
    if Obs.Provenance.on () then Lineage.record_merge x y m;
    Some m
  with Bail -> None

let union_report ?policy a b =
  let schema = Relation.schema a in
  let conflicts = ref [] in
  let record key attr detail =
    conflicts :=
      { conflict_key = key; conflict_attr = attr; conflict_detail = detail }
      :: !conflicts
  in
  let result = union_with (merge_report ?policy schema ~record) a b in
  (result, List.rev !conflicts)

let is_quarantine c =
  String.length c.conflict_detail >= 12
  && String.sub c.conflict_detail 0 12 = "quarantined:"

let product a b =
  let schema = Schema.product (Relation.schema a) (Relation.schema b) in
  Relation.fold
    (fun ta acc ->
      Relation.fold
        (fun tb acc -> add_if_positive acc (Etuple.concat ta tb))
        b acc)
    a (Relation.empty schema)

let join ?(threshold = Threshold.always) pred a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let schema = Schema.product sa sb in
  let pred = Predicate.compile_product sa sb pred in
  Relation.fold
    (fun ta acc ->
      Relation.fold
        (fun tb acc ->
          let support = Predicate.eval_pair pred ta tb in
          let paired = Etuple.concat ta tb in
          let tm = Dst.Support.f_tm (Etuple.tm paired) support in
          if Threshold.satisfies threshold tm && Dst.Support.positive tm then begin
            let out = Etuple.with_tm tm paired in
            if Obs.Provenance.on () then
              Lineage.record_support ~label:"join" ~support
                ~inputs:[ ta; tb ] out;
            Relation.add acc out
          end
          else acc)
        b acc)
    a (Relation.empty schema)

module Vmap = Map.Make (Dst.Value)

let check_definite schema attr_name =
  match Attr.kind (Schema.find schema attr_name) with
  | Attr.Definite _ -> ()
  | Attr.Evidential _ -> raise (Index.Not_definite attr_name)

let join_indexed ?(threshold = Threshold.always)
    ?(residual = Predicate.Const_true) ?tally ~left_attr ~right_attr a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  check_definite sa left_attr;
  check_definite sb right_attr;
  let schema = Schema.product sa sb in
  let residual = Predicate.compile_product sa sb residual in
  (* Build side: bucket the right operand by its (definite) join value. *)
  let buckets =
    Relation.fold
      (fun tb acc ->
        let v = Etuple.definite_value sb tb right_attr in
        Vmap.update v
          (function None -> Some [ tb ] | Some ts -> Some (tb :: ts))
          acc)
      b Vmap.empty
  in
  (* Probe side: a definite-equality conjunct holds with crisp support
     (1,1) inside a bucket and (0,0) outside, so only bucketed pairs can
     survive closure and their membership reduces to
     F_TM(tm, F_SS(residual)) — exactly the nested loop's arithmetic on
     the surviving pairs, pair-for-pair. *)
  Relation.fold
    (fun ta acc ->
      let v = Etuple.definite_value sa ta left_attr in
      match Vmap.find_opt v buckets with
      | None ->
          (match tally with
          | Some f -> f ~hit:false ~matched:0 ~kept:0
          | None -> ());
          acc
      | Some matches ->
          let kept = ref 0 in
          let acc =
            List.fold_left
              (fun acc tb ->
                let support = Predicate.eval_pair residual ta tb in
                let paired = Etuple.concat ta tb in
                let tm = Dst.Support.f_tm (Etuple.tm paired) support in
                if Threshold.satisfies threshold tm && Dst.Support.positive tm
                then begin
                  incr kept;
                  let out = Etuple.with_tm tm paired in
                  (* The crisp equality conjunct contributes (1,1) on
                     every bucketed pair, so [support] here equals the
                     nested loop's full-predicate support pair-for-pair
                     — the recorded lineage is plan-invariant. *)
                  if Obs.Provenance.on () then
                    Lineage.record_support ~label:"join" ~support
                      ~inputs:[ ta; tb ] out;
                  Relation.add acc out
                end
                else acc)
              acc matches
          in
          (match tally with
          | Some f -> f ~hit:true ~matched:(List.length matches) ~kept:!kept
          | None -> ());
          acc)
    a (Relation.empty schema)

let rename_attrs f r =
  let schema = Schema.rename_attrs f (Relation.schema r) in
  Relation.map_tuples (fun t -> Some t) schema r

let intersect_keys a b =
  Relation.fold
    (fun t acc ->
      let key = Etuple.key t in
      if Relation.mem b key then key :: acc else acc)
    a []
  |> List.rev

let pp_conflict ppf c =
  Format.fprintf ppf "key (%a)%s: %s"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Dst.Value.pp)
    c.conflict_key
    (match c.conflict_attr with
    | Some a -> " attribute " ^ a
    | None -> " membership")
    c.conflict_detail

let difference a b =
  check_union_compatible a b;
  (* The positivity filter only matters for relations materialized with
     the _unchecked constructors: it extends Theorem-1 boundedness to
     difference (complement tuples in [a] never surface). *)
  Relation.filter
    (fun t ->
      Dst.Support.positive (Etuple.tm t)
      && not (Relation.mem b (Etuple.key t)))
    a

let intersection ?policy a b =
  check_union_compatible a b;
  let schema = Relation.schema a in
  Relation.merge
    (fun x y ->
      match (x, y) with
      | Some t, Some u -> (
          match
            Etuple.combine_with
              ~combine_evidence:(Dst.Mass.F.combine_policy_exn ?policy)
              schema t u
          with
          | m ->
              if Obs.Provenance.on () then Lineage.record_merge t u m;
              Some m
          | exception Dst.Mass.F.Quarantined_cell _ -> None)
      | Some _, None | None, Some _ | None, None -> None)
    schema a b
