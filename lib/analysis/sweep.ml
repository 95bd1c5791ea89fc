let tol = Dst.Num.float_tolerance

(* Build a diagnostic whose severity follows the check's priority, so
   Blocker/High sweeps gate like errors and Info sweeps stay advisory. *)
let finding priority ?file ~code fmt =
  match Checkdef.severity_of_priority priority with
  | Diagnostic.Error -> Diagnostic.error ?file ~code fmt
  | Diagnostic.Warning -> Diagnostic.warning ?file ~code fmt
  | Diagnostic.Info -> Diagnostic.info ?file ~code fmt

let key_label t = String.concat ", " (List.map Dst.Value.to_string (Erm.Etuple.key t))

(* ------------------------------------------------------------------ *)
(* Telemetry harvest                                                   *)

let rollup_prefix = "dst.combine.kappa_by_source."

let kappa_rollups () =
  List.filter_map
    (fun (name, stat) ->
      match stat with
      | Obs.Metrics.Histogram { count; sum; max; _ } when count > 0 ->
          Some
            {
              Checkdef.rollup_source =
                String.sub name
                  (String.length rollup_prefix)
                  (String.length name - String.length rollup_prefix);
              rollup_count = count;
              rollup_mean = sum /. float_of_int count;
              rollup_max = max;
            }
      | _ -> None)
    (Obs.Metrics.with_prefix rollup_prefix)

(* Combine nodes inside an absorption Step's [from, to) range carry the
   per-cell merge κ values; the Step's args name the absorbed source. *)
let merge_records () =
  if not (Obs.Provenance.on ()) then []
  else begin
    let out = ref [] in
    let n = Obs.Provenance.count () in
    for i = 0 to n - 1 do
      let node = Obs.Provenance.node i in
      if node.Obs.Provenance.kind = Obs.Provenance.Step then
        match
          ( List.assoc_opt "source" node.Obs.Provenance.args,
            List.assoc_opt "from" node.Obs.Provenance.args,
            List.assoc_opt "to" node.Obs.Provenance.args )
        with
        | Some source, Some from_s, Some to_s -> (
            match (int_of_string_opt from_s, int_of_string_opt to_s) with
            | Some lo, Some hi ->
                for j = lo to Int.min hi n - 1 do
                  let m = Obs.Provenance.node j in
                  match (m.Obs.Provenance.kind, m.Obs.Provenance.kappa) with
                  | Obs.Provenance.Combine, Some k ->
                      out :=
                        {
                          Checkdef.merge_source = source;
                          merge_label = m.Obs.Provenance.label;
                          merge_kappa = k;
                        }
                        :: !out
                  | _ -> ()
                done
            | _ -> ())
        | _ -> ()
    done;
    List.rev !out
  end

let subject ?(thresholds = Checkdef.default_thresholds) ?(telemetry = true)
    ?store relations =
  let store =
    Option.map
      (fun t ->
        {
          Checkdef.store_name = Store.Estore.name t;
          store_dir = Store.Estore.dir t;
          store_version = Store.Estore.version t;
          store_segments =
            List.rev
              (Store.Estore.fold_segments t ~init:[] ~f:(fun acc seg records ->
                   (seg, records) :: acc));
        })
      store
  in
  {
    Checkdef.relations;
    store;
    rollups = (if telemetry then kappa_rollups () else []);
    merges = (if telemetry then merge_records () else []);
    thresholds;
  }

(* ------------------------------------------------------------------ *)
(* S001 — dangling cross-relation key references                       *)

(* A definite non-key attribute that shares its name (and value kind)
   with another relation's single definite key attribute is treated as
   a foreign key; values that resolve to no key there dangle. *)
let s001 (s : Checkdef.store_subject) =
  let targets =
    List.filter_map
      (fun (rname, r) ->
        let schema = Erm.Relation.schema r in
        match Erm.Schema.key schema with
        | [ k ] -> (
            match Erm.Attr.kind k with
            | Erm.Attr.Definite value_kind ->
                let keys = Hashtbl.create (Erm.Relation.cardinal r) in
                Erm.Relation.iter
                  (fun t ->
                    match Erm.Etuple.key t with
                    | [ v ] -> Hashtbl.replace keys (Dst.Value.to_string v) ()
                    | _ -> ())
                  r;
                Some (rname, Erm.Attr.name k, value_kind, keys)
            | Erm.Attr.Evidential _ -> None)
        | _ -> None)
      s.Checkdef.relations
  in
  List.concat_map
    (fun (rname, r) ->
      let schema = Erm.Relation.schema r in
      List.concat_map
        (fun attr ->
          match Erm.Attr.kind attr with
          | Erm.Attr.Evidential _ -> []
          | Erm.Attr.Definite kind ->
              let aname = Erm.Attr.name attr in
              List.concat_map
                (fun (tname, kname, tkind, keys) ->
                  if
                    String.equal tname rname
                    || (not (String.equal kname aname))
                    || not (String.equal kind tkind)
                  then []
                  else begin
                    let missing = ref [] in
                    let seen = Hashtbl.create 16 in
                    Erm.Relation.iter
                      (fun t ->
                        let v = Erm.Etuple.definite_value schema t aname in
                        let vs = Dst.Value.to_string v in
                        if
                          (not (Hashtbl.mem keys vs))
                          && not (Hashtbl.mem seen vs)
                        then begin
                          Hashtbl.add seen vs ();
                          missing := (vs, key_label t) :: !missing
                        end)
                      r;
                    List.rev_map
                      (fun (vs, at) ->
                        finding Checkdef.High ~file:rname ~code:"S001"
                          "dangling reference: %s.%s = %s matches no %s key \
                           (first at key (%s))"
                          rname aname vs tname at)
                      !missing
                  end)
                targets)
        (Erm.Schema.nonkey schema))
    s.Checkdef.relations

(* ------------------------------------------------------------------ *)
(* S002 — dormant domain values (Bel/Pls over every stored tuple)     *)

let s002 (s : Checkdef.store_subject) =
  let eps = s.Checkdef.thresholds.Checkdef.dormant_pls in
  List.concat_map
    (fun (rname, r) ->
      if Erm.Relation.is_empty r then []
      else
        let schema = Erm.Relation.schema r in
        List.concat_map
          (fun attr ->
            match Erm.Attr.domain attr with
            | None -> []
            | Some domain ->
                let aname = Erm.Attr.name attr in
                (* A value stays a dormancy candidate while every cell
                   seen so far keeps Bel = 0 and Pls <= eps. Each
                   candidate's singleton is masked once. *)
                let candidates =
                  ref
                    (List.map
                       (fun v ->
                         (v, Dst.Domain.mask domain (Dst.Vset.singleton v)))
                       (Dst.Vset.to_list (Dst.Domain.values domain)))
                in
                Erm.Relation.iter
                  (fun t ->
                    if !candidates <> [] then
                      match Erm.Etuple.cell schema t aname with
                      | Erm.Etuple.Definite _ -> candidates := []
                      | Erm.Etuple.Evidence e ->
                          candidates :=
                            List.filter
                              (fun (_, sv) ->
                                Dst.Mass.F.bel_mask e sv = 0.0
                                && Dst.Mass.F.pls_mask e sv <= eps)
                              !candidates)
                  r;
                List.map
                  (fun (v, _) ->
                    finding Checkdef.Low ~file:rname ~code:"S002"
                      "domain value %s of %s.%s is dormant: Bel = 0 and Pls \
                       <= %g in every stored tuple"
                      (Dst.Value.to_string v) rname aname eps)
                  !candidates)
          (Erm.Schema.nonkey schema))
    s.Checkdef.relations

(* ------------------------------------------------------------------ *)
(* S003 — CWA_ER violations in stored tuples                           *)

let s003 (s : Checkdef.store_subject) =
  List.concat_map
    (fun (rname, r) ->
      Erm.Relation.fold
        (fun t acc ->
          let tm = Erm.Etuple.tm t in
          let sn = Dst.Support.sn tm and sp = Dst.Support.sp tm in
          if sn <= 0.0 || sn > sp +. tol || sp > 1.0 +. tol then
            finding Checkdef.Blocker ~file:rname ~code:"S003"
              "stored tuple (%s) violates CWA_ER: membership (sn, sp) = \
               (%g, %g)"
              (key_label t) sn sp
            :: acc
          else acc)
        r []
      |> List.rev)
    s.Checkdef.relations

(* ------------------------------------------------------------------ *)
(* S004 — per-source disagreement from the κ-by-source rollups         *)

let s004 (s : Checkdef.store_subject) =
  let k0 = s.Checkdef.thresholds.Checkdef.source_kappa in
  List.filter_map
    (fun (r : Checkdef.kappa_rollup) ->
      if r.Checkdef.rollup_mean >= k0 then
        Some
          (finding Checkdef.High ~file:r.Checkdef.rollup_source ~code:"S004"
             "source %s disagrees with the consensus: mean merge kappa \
              %.3f over %d combination(s) (max %.3f, threshold %.2f)"
             r.Checkdef.rollup_source r.Checkdef.rollup_mean
             r.Checkdef.rollup_count r.Checkdef.rollup_max k0)
      else None)
    s.Checkdef.rollups

(* ------------------------------------------------------------------ *)
(* S005 — individual high-conflict cell merges                         *)

let truncate_label l =
  if String.length l <= 48 then l else String.sub l 0 45 ^ "..."

let s005 (s : Checkdef.store_subject) =
  let k0 = s.Checkdef.thresholds.Checkdef.merge_kappa in
  List.filter_map
    (fun (m : Checkdef.merge_record) ->
      if m.Checkdef.merge_kappa >= k0 then
        Some
          (finding Checkdef.Medium ~file:m.Checkdef.merge_source ~code:"S005"
             "high-conflict merge absorbing %s: kappa = %.3f on %s"
             m.Checkdef.merge_source m.Checkdef.merge_kappa
             (truncate_label m.Checkdef.merge_label))
      else None)
    s.Checkdef.merges

(* ------------------------------------------------------------------ *)
(* S006 — duplicate-entity suspicion via normalized keys               *)

let normalize_key raw =
  let buf = Buffer.create (String.length raw) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' -> Buffer.add_char buf (Char.lowercase_ascii c)
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char buf c
      | _ -> ())
    raw;
  Buffer.contents buf

let s006 (s : Checkdef.store_subject) =
  List.concat_map
    (fun (rname, r) ->
      let groups = Hashtbl.create 64 in
      let order = ref [] in
      Erm.Relation.iter
        (fun t ->
          let k = key_label t in
          let norm = normalize_key k in
          match Hashtbl.find_opt groups norm with
          | Some ks -> Hashtbl.replace groups norm (k :: ks)
          | None ->
              Hashtbl.add groups norm [ k ];
              order := norm :: !order)
        r;
      List.filter_map
        (fun norm ->
          match Hashtbl.find groups norm with
          | [] | [ _ ] -> None
          | ks ->
              Some
                (finding Checkdef.Medium ~file:rname ~code:"S006"
                   "keys %s of %s normalize to the same entity '%s' — \
                    suspected duplicates"
                   (String.concat ", "
                      (List.map (Printf.sprintf "(%s)") (List.rev ks)))
                   rname norm))
        (List.rev !order))
    s.Checkdef.relations

(* ------------------------------------------------------------------ *)
(* S007 — value clones: distinct keys, bit-identical non-key cells     *)

let cell_digest schema t =
  let parts =
    List.map
      (fun attr ->
        match Erm.Etuple.cell schema t (Erm.Attr.name attr) with
        | Erm.Etuple.Definite v -> "d:" ^ Dst.Value.to_string v
        | Erm.Etuple.Evidence e -> "e:" ^ Dst.Mass.F.digest e)
      (Erm.Schema.nonkey schema)
  in
  Digest.to_hex (Digest.string (String.concat "|" parts))

let s007 (s : Checkdef.store_subject) =
  List.concat_map
    (fun (rname, r) ->
      let schema = Erm.Relation.schema r in
      if Erm.Schema.nonkey schema = [] then []
      else begin
        let groups = Hashtbl.create 64 in
        let order = ref [] in
        Erm.Relation.iter
          (fun t ->
            let d = cell_digest schema t in
            match Hashtbl.find_opt groups d with
            | Some ks -> Hashtbl.replace groups d (key_label t :: ks)
            | None ->
                Hashtbl.add groups d [ key_label t ];
                order := d :: !order)
          r;
        List.filter_map
          (fun d ->
            match Hashtbl.find groups d with
            | [] | [ _ ] -> None
            | ks ->
                Some
                  (finding Checkdef.Low ~file:rname ~code:"S007"
                     "tuples %s of %s carry bit-identical non-key values \
                      (digest %s) — suspected clones"
                     (String.concat ", "
                        (List.map (Printf.sprintf "(%s)") (List.rev ks)))
                     rname (String.sub d 0 8)))
          (List.rev !order)
      end)
    s.Checkdef.relations

(* ------------------------------------------------------------------ *)
(* S008/S009 — segment-history checks                                  *)

let s008 (s : Checkdef.store_subject) =
  match s.Checkdef.store with
  | None -> []
  | Some meta ->
      let upserted = Hashtbl.create 256 in
      let out = ref [] in
      List.iter
        (fun (seg, records) ->
          List.iter
            (fun record ->
              match record with
              | Store.Segment.Schema_rec _ -> ()
              | Store.Segment.Upsert { digest; _ } ->
                  Hashtbl.replace upserted digest ()
              | Store.Segment.Delete { digest } ->
                  if not (Hashtbl.mem upserted digest) then
                    out :=
                      finding Checkdef.Medium
                        ~file:
                          (Filename.concat meta.Checkdef.store_dir seg)
                        ~code:"S008"
                        "delete of digest %s… has no prior upsert in the \
                         committed history"
                        (String.sub digest 0
                           (Int.min 8 (String.length digest)))
                      :: !out)
            records)
        meta.Checkdef.store_segments;
      List.rev !out

let s009 (s : Checkdef.store_subject) =
  match s.Checkdef.store with
  | None -> []
  | Some meta ->
      let live = Hashtbl.create 256 in
      let records = ref 0 in
      List.iter
        (fun (_, rs) ->
          List.iter
            (fun record ->
              match record with
              | Store.Segment.Schema_rec _ -> ()
              | Store.Segment.Upsert { digest; _ } ->
                  incr records;
                  Hashtbl.replace live digest ()
              | Store.Segment.Delete { digest } ->
                  incr records;
                  Hashtbl.remove live digest)
            rs)
        meta.Checkdef.store_segments;
      let live = Hashtbl.length live in
      let dead = !records - live in
      if
        float_of_int dead
        > s.Checkdef.thresholds.Checkdef.bloat_factor *. float_of_int live
        && dead > 0
      then
        [
          finding Checkdef.Info ~file:meta.Checkdef.store_dir ~code:"S009"
            "store %s v%d holds %d dead record(s) vs %d live across %d \
             segment(s); compaction would shrink it"
            meta.Checkdef.store_name meta.Checkdef.store_version dead live
            (List.length meta.Checkdef.store_segments);
        ]
      else []

(* ------------------------------------------------------------------ *)
(* S010 — empty relations                                              *)

let s010 (s : Checkdef.store_subject) =
  List.filter_map
    (fun (rname, r) ->
      if Erm.Relation.is_empty r then
        Some
          (finding Checkdef.Info ~file:rname ~code:"S010"
             "relation %s holds no tuples" rname)
      else None)
    s.Checkdef.relations

(* ------------------------------------------------------------------ *)
(* The registry slice and the driver                                   *)

let store_check ~code ~name ~priority ~description run =
  {
    Checkdef.code;
    name;
    priority;
    scope = Checkdef.Store;
    description;
    run =
      (function
      | Checkdef.Store_subject s -> run s
      | Checkdef.File_subject _ | Checkdef.Query_subject _ -> []);
  }

let checks =
  [
    store_check ~code:"S001" ~name:"Dangling_Key_Reference"
      ~priority:Checkdef.High
      ~description:
        "Definite attributes sharing a name and kind with another \
         relation's key whose values resolve to no key there — broken \
         cross-relation references after integration."
      s001;
    store_check ~code:"S002" ~name:"Dormant_Domain_Value"
      ~priority:Checkdef.Low
      ~description:
        "Declared domain values with Bel = 0 and Pls below the dormancy \
         threshold in every stored tuple of an attribute — evidence the \
         merged store has effectively ruled out everywhere."
      s002;
    store_check ~code:"S003" ~name:"CWA_Store_Violation"
      ~priority:Checkdef.Blocker
      ~description:
        "Stored tuples whose membership support violates CWA_ER (sn <= 0) \
         or the 0 <= sn <= sp <= 1 axioms — the store must never hold \
         them."
      s003;
    store_check ~code:"S004" ~name:"Source_Disagreement"
      ~priority:Checkdef.High
      ~description:
        "Sources whose mean merge conflict (dst.combine.kappa_by_source \
         rollup) meets the disagreement threshold — stale or \
         systematically conflicting feeds."
      s004;
    store_check ~code:"S005" ~name:"High_Conflict_Merge"
      ~priority:Checkdef.Medium
      ~description:
        "Individual cell merges whose recorded Dempster kappa meets the \
         high-conflict threshold (provenance Step ranges) — \
         normalization is hiding near-total conflict (Zadeh's critique)."
      s005;
    store_check ~code:"S006" ~name:"Duplicate_Entity_Suspect"
      ~priority:Checkdef.Medium
      ~description:
        "Distinct keys that normalize (case/punctuation-insensitively) to \
         the same entity string — probable duplicate entities the \
         key-based merge could not unify."
      s006;
    store_check ~code:"S007" ~name:"Value_Clone_Suspect"
      ~priority:Checkdef.Low
      ~description:
        "Distinct keys carrying bit-identical non-key cell values \
         (value-digest clustering) — suspected re-keyed copies of one \
         entity."
      s007;
    store_check ~code:"S008" ~name:"Dangling_Delete"
      ~priority:Checkdef.Medium
      ~description:
        "Delete records in the committed segment history whose digest was \
         never upserted — a write-path bug or foreign segment."
      s008;
    store_check ~code:"S009" ~name:"Segment_Bloat" ~priority:Checkdef.Info
      ~description:
        "Dead (superseded) records outnumbering live tuples beyond the \
         bloat factor — the store would benefit from compaction."
      s009;
    store_check ~code:"S010" ~name:"Empty_Relation" ~priority:Checkdef.Info
      ~description:"Stored or bound relations holding no tuples at all."
      s010;
  ]

let run (subject : Checkdef.store_subject) =
  let body () =
    let diags =
      List.concat_map
        (fun c -> c.Checkdef.run (Checkdef.Store_subject subject))
        checks
    in
    if Obs.Metrics.on () then begin
      Obs.Metrics.incr "analysis.sweep.runs";
      Obs.Metrics.incr ~by:(List.length checks) "analysis.sweep.checks";
      Obs.Metrics.incr
        ~by:(List.length subject.Checkdef.relations)
        "analysis.sweep.relations";
      Obs.Metrics.incr
        ~by:
          (List.fold_left
             (fun acc (_, r) -> acc + Erm.Relation.cardinal r)
             0 subject.Checkdef.relations)
        "analysis.sweep.tuples";
      Obs.Metrics.incr ~by:(List.length diags) "analysis.sweep.findings"
    end;
    List.sort Diagnostic.compare diags
  in
  if Obs.Trace.on () then
    Obs.Trace.with_span ~cat:"analysis"
      ~args:
        [
          ("detail",
           Printf.sprintf "%d relation(s)"
             (List.length subject.Checkdef.relations));
        ]
      "analysis.sweep" body
  else body ()
