module type S = sig
  type num
  type t

  exception Invalid_mass of string
  exception Total_conflict
  exception Quarantined_cell of float
  exception Frame_mismatch of Domain.t * Domain.t

  type outcome =
    | Combined of { result : t; kappa : num; rule : Rule.t; escalated : bool }
    | Quarantined of { kappa : num }
    | Conflicted

  val make : Domain.t -> (Vset.t * num) list -> t
  val make_masks : Domain.t -> (Domain.mask * num) list -> t
  val make_normalized : Domain.t -> (Vset.t * num) list -> t
  val vacuous : Domain.t -> t
  val certain : Domain.t -> Value.t -> t
  val certain_set : Domain.t -> Vset.t -> t
  val simple_support : Domain.t -> Vset.t -> num -> t
  val bayesian : Domain.t -> (Value.t * num) list -> t
  val frame : t -> Domain.t
  val focals : t -> (Vset.t * num) list
  val focal_count : t -> int
  val focal_sets : t -> Domain.mask
  val focal_mass : t -> int -> num
  val mass : t -> Vset.t -> num
  val bel : t -> Vset.t -> num
  val pls : t -> Vset.t -> num
  val bel_mask : t -> Domain.mask -> num
  val pls_mask : t -> Domain.mask -> num
  val doubt : t -> Vset.t -> num
  val commonality : t -> Vset.t -> num
  val interval : t -> Vset.t -> num * num
  val ignorance : t -> Vset.t -> num
  val is_vacuous : t -> bool
  val is_bayesian : t -> bool
  val is_definite : t -> bool
  val definite_value : t -> Value.t option
  val is_consonant : t -> bool
  val conflict : t -> t -> num
  val combine : t -> t -> t
  val combine_opt : t -> t -> (t * num) option
  val combine_rule_opt :
    ?rule:Rule.t -> ?prov:(string * string) list -> t -> t -> (t * num) option
  val combine_policy : ?policy:Rule.policy -> t -> t -> outcome
  val combine_policy_exn : ?policy:Rule.policy -> t -> t -> t
  val combine_yager : t -> t -> t
  val combine_dubois_prade : t -> t -> t
  val combine_average : t -> t -> t
  val combine_disjunctive : t -> t -> t
  val combine_many : ?rule:Rule.t -> t list -> t
  val discount : float -> t -> t
  val condition : t -> Vset.t -> t
  val pignistic : t -> (Value.t * num) list
  val approximate : max_focals:int -> t -> t
  val max_bel : t -> Value.t
  val max_pls : t -> Value.t
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
  val digest : t -> string
end

module Make (N : Num.S) : S with type num = N.t = struct
  type num = N.t

  (* Focal sets are masks over the frame's numbering (see Domain), stored
     back to back: focal k is [sets.(k*w) .. sets.(k*w + w - 1)], where
     w = Domain.words frame, in ascending Domain.compare_at order — which
     is Vset.compare order. [masses.(k)] is its mass. Neither array is
     written after construction. *)
  type t = { frame : Domain.t; sets : int array; masses : num array }

  exception Invalid_mass of string
  exception Total_conflict
  exception Quarantined_cell of float
  exception Frame_mismatch of Domain.t * Domain.t

  type outcome =
    | Combined of { result : t; kappa : num; rule : Rule.t; escalated : bool }
    | Quarantined of { kappa : num }
    | Conflicted

  let num_lt a b = N.compare a b < 0
  let num_gt a b = N.compare a b > 0
  let is_zero x = N.equal x N.zero
  let width m = Domain.words m.frame
  let count m = Array.length m.masses

  (* Index of the [w]-word set at [src.(off)] among the first [n] sets of
     the sorted [words], or [-(insertion point) - 1] when absent. *)
  let search w words n src off =
    let lo = ref 0 and hi = ref n and found = ref (-1) in
    while !found < 0 && !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      let c = Domain.compare_at w src off words (mid * w) in
      if c = 0 then found := mid else if c < 0 then hi := mid else lo := mid + 1
    done;
    if !found >= 0 then !found else - !lo - 1

  (* A table of distinct focal sets, sorted, each with its running sum.
     Every kernel knows its capacity up front (|F1|·|F2| products at
     most), so the arrays never grow. A mass adds to its set's sum in the
     order it arrives: the summation order of the products is the
     kernel's iteration order. *)
  type table = { w : int; mutable n : int; words : int array; vals : num array }

  let table w cap =
    let cap = max 1 cap in
    { w; n = 0; words = Array.make (cap * w) 0; vals = Array.make cap N.zero }

  let accumulate tb src off p =
    let pos = search tb.w tb.words tb.n src off in
    if pos >= 0 then tb.vals.(pos) <- N.add p tb.vals.(pos)
    else begin
      let i = -pos - 1 and w = tb.w in
      Array.blit tb.words (i * w) tb.words ((i + 1) * w) ((tb.n - i) * w);
      Array.blit tb.vals i tb.vals (i + 1) (tb.n - i);
      Array.blit src off tb.words (i * w) w;
      tb.vals.(i) <- p;
      tb.n <- tb.n + 1
    end

  (* The table is dropped afterwards, so a full array is taken as is. *)
  let freeze ?scale frame tb =
    let fit a len = if Array.length a = len then a else Array.sub a 0 len in
    let masses =
      match scale with
      | None -> fit tb.vals tb.n
      | Some f -> Array.init tb.n (fun i -> f tb.vals.(i))
    in
    { frame; sets = fit tb.words (tb.n * tb.w); masses }

  let sum_masses tb =
    let acc = ref N.zero in
    for i = 0 to tb.n - 1 do
      acc := N.add tb.vals.(i) !acc
    done;
    !acc

  (* Shared validation: merge duplicates, drop zeros, check range.
     [mask_of] checks the set itself (non-empty, inside the frame). *)
  let collect frame entries ~mask_of ~vset_of =
    let tb = table (Domain.words frame) (List.length entries) in
    List.iter
      (fun (set, x) ->
        if num_lt x N.zero then
          raise
            (Invalid_mass
               (Format.asprintf "negative mass %a on %a" N.pp x Vset.pp
                  (vset_of set)))
        else if not (is_zero x) then accumulate tb (mask_of set) 0 x)
      entries;
    tb

  let empty_set () = raise (Invalid_mass "positive mass on the empty set")

  let vset_mask frame set =
    if Vset.is_empty set then empty_set ()
    else if not (Domain.subset set frame) then
      raise
        (Invalid_mass
           (Format.asprintf "focal element %a outside frame %s" Vset.pp set
              (Domain.name frame)))
    else Domain.mask frame set

  let checked_mask frame m =
    if Domain.cardinal_at (Domain.words frame) m 0 = 0 then empty_set () else m

  let of_table frame tb =
    let total = sum_masses tb in
    if not (N.equal total N.one) then
      raise
        (Invalid_mass
           (Printf.sprintf "masses sum to %.12g, not 1" (N.to_float total)))
    else freeze frame tb

  let make frame entries =
    of_table frame
      (collect frame entries ~mask_of:(vset_mask frame) ~vset_of:Fun.id)

  let make_masks frame entries =
    of_table frame
      (collect frame entries ~mask_of:(checked_mask frame)
         ~vset_of:(fun m -> Domain.vset_at frame m 0))

  let make_normalized frame entries =
    let tb = collect frame entries ~mask_of:(vset_mask frame) ~vset_of:Fun.id in
    let total = sum_masses tb in
    if not (num_gt total N.zero) then
      raise (Invalid_mass "cannot normalize: total mass is zero")
    else freeze ~scale:(fun x -> N.div x total) frame tb

  let vacuous frame =
    { frame; sets = Domain.full_mask frame; masses = [| N.one |] }

  let certain_set frame set = make frame [ (set, N.one) ]
  let certain frame v = certain_set frame (Vset.singleton v)

  let simple_support frame set w =
    make frame [ (set, w); (Domain.values frame, N.sub N.one w) ]

  let bayesian frame pairs =
    make frame (List.map (fun (v, x) -> (Vset.singleton v, x)) pairs)

  let frame m = m.frame
  let focal_count = count
  let focal_sets m = m.sets
  let focal_mass m k = m.masses.(k)

  let focals m =
    let w = width m in
    List.init (count m) (fun k ->
        (Domain.vset_at m.frame m.sets (k * w), m.masses.(k)))

  let mass_at m src off =
    let k = search (width m) m.sets (count m) src off in
    if k >= 0 then m.masses.(k) else N.zero

  let mass m set =
    if Vset.is_empty set || not (Domain.subset set m.frame) then N.zero
    else mass_at m (Domain.mask m.frame set) 0

  (* Ascending focal order, [N.add x acc]: the summation order the
     goldens pin. *)
  let sum_where p m =
    let w = width m in
    let acc = ref N.zero in
    for k = 0 to count m - 1 do
      if p w m.sets (k * w) then acc := N.add m.masses.(k) !acc
    done;
    !acc

  let bel_mask m a = sum_where (fun w s i -> Domain.subset_at w s i a 0) m

  let pls_mask m a =
    sum_where (fun w s i -> not (Domain.disjoint_at w s i a 0)) m

  let bel m a = bel_mask m (Domain.mask m.frame a)
  let pls m a = pls_mask m (Domain.mask m.frame a)
  let doubt m a = bel m (Vset.diff (Domain.values m.frame) a)

  (* No focal set holds a value outside the frame. *)
  let commonality m a =
    if not (Domain.subset a m.frame) then N.zero
    else
      let c = Domain.mask m.frame a in
      sum_where (fun w s i -> Domain.subset_at w c 0 s i) m

  let interval m a = (bel m a, pls m a)
  let ignorance m a = N.sub (pls m a) (bel m a)

  let is_vacuous m = count m = 1 && Domain.is_full_at m.frame m.sets 0

  let is_bayesian m =
    let w = width m in
    let rec go k =
      k = count m || (Domain.cardinal_at w m.sets (k * w) = 1 && go (k + 1))
    in
    go 0

  let is_definite m = count m = 1 && is_bayesian m

  let definite_value m =
    if is_definite m then
      let i = Domain.fold_at (width m) m.sets 0 (fun i _ -> i) 0 in
      Some (Domain.value m.frame i)
    else None

  let is_consonant m =
    let w = width m in
    let card k = Domain.cardinal_at w m.sets (k * w) in
    let by_size =
      List.init (count m) Fun.id
      |> List.sort (fun a b -> compare (card a) (card b))
    in
    let rec chained = function
      | a :: (b :: _ as rest) ->
          Domain.subset_at w m.sets (a * w) m.sets (b * w) && chained rest
      | [ _ ] | [] -> true
    in
    chained by_size

  let pp ppf m =
    let w = width m in
    let pp_focal ppf k =
      let x = m.masses.(k) in
      if Domain.is_full_at m.frame m.sets (k * w) then
        Format.fprintf ppf "~^%a" N.pp x
      else
        Format.fprintf ppf "%a^%a" Vset.pp_compact
          (Domain.vset_at m.frame m.sets (k * w))
          N.pp x
    in
    Format.fprintf ppf "[@[%a@]]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
         pp_focal)
      (List.init (count m) Fun.id)

  let to_string m = Format.asprintf "%a" pp m

  (* Canonical digest: frame name, then the ordered focal assignment
     with hex-float masses ([%h] is lossless for the float instance).
     Bit-identical values digest equally, which is what gives every
     distinct evidence value a single provenance identity. *)
  let digest m =
    let buf = Buffer.create 64 in
    let w = width m in
    Buffer.add_string buf (Domain.name m.frame);
    Buffer.add_char buf '#';
    Buffer.add_string buf (string_of_int (Domain.size m.frame));
    for k = 0 to count m - 1 do
      Buffer.add_char buf '|';
      Domain.add_set_at buf m.frame m.sets (k * w);
      Buffer.add_char buf '^';
      Buffer.add_string buf (Printf.sprintf "%h" (N.to_float m.masses.(k)))
    done;
    Digest.to_hex (Digest.string (Buffer.contents buf))

  (* Provenance hook shared by direct combination and the cache's miss
     path: operands resolve to their registered derivations (or fresh
     leaves when their history predates provenance being enabled), the
     step records κ, the normalization factor and the rule that ran
     (plus any escalation annotations in [prov]), and the result's
     digest is bound to the new node. Only Dempster (and the Dempster
     leg of discount-then-combine) normalizes, so [norm] is 1 - κ for
     it and 1 for every other rule. *)
  let record_combine ?(rule = "dempster") ?(prov = [])
      ?(norm = fun k -> 1.0 -. k) m1 m2 result =
    let operand m =
      Obs.Provenance.find_or_leaf (digest m) ~label:(to_string m)
    in
    let i1 = operand m1 in
    let i2 = operand m2 in
    match result with
    | Some (res, kappa) ->
        let k = N.to_float kappa in
        let id =
          Obs.Provenance.add Obs.Provenance.Combine (to_string res) ~kappa:k
            ~norm:(norm k)
            ~args:(("rule", rule) :: prov)
            ~inputs:[ i1; i2 ]
        in
        Obs.Provenance.register (digest res) id
    | None ->
        ignore
          (Obs.Provenance.add Obs.Provenance.Combine "(total conflict)"
             ~kappa:1.0 ~norm:0.0
             ~args:(("rule", rule) :: prov)
             ~inputs:[ i1; i2 ])

  let check_frames m1 m2 =
    if not (Domain.equal m1.frame m2.frame) then
      raise (Frame_mismatch (m1.frame, m2.frame))

  (* Conjunctive cross product: feed every pair (X ∩ Y, m1(X)·m2(Y)) to
     [emit], which must copy the intersection out of the shared scratch
     mask before the next pair; pairs with empty intersection go to
     [emit_conflict] with the indices of X and Y. *)
  let cross m1 m2 ~emit ~emit_conflict =
    let w = width m1 in
    let z = Array.make w 0 in
    let s1 = m1.sets and s2 = m2.sets in
    for i = 0 to count m1 - 1 do
      let mx = m1.masses.(i) in
      for j = 0 to count m2 - 1 do
        let product = N.mul mx m2.masses.(j) in
        let any = ref 0 in
        for k = 0 to w - 1 do
          let bits = s1.((i * w) + k) land s2.((j * w) + k) in
          z.(k) <- bits;
          any := !any lor bits
        done;
        if !any = 0 then emit_conflict i j product else emit z product
      done
    done

  let conflict m1 m2 =
    check_frames m1 m2;
    let kappa = ref N.zero in
    cross m1 m2
      ~emit:(fun _ _ -> ())
      ~emit_conflict:(fun _ _ p -> kappa := N.add !kappa p);
    !kappa

  (* X ∪ Y for focal i of [m1] and focal j of [m2], into [u]. *)
  let union_into u m1 i m2 j =
    let w = Array.length u in
    for k = 0 to w - 1 do
      u.(k) <- m1.sets.((i * w) + k) lor m2.sets.((j * w) + k)
    done

  (* Every kernel below emits the shared dst.combine.calls /
     conflict_kappa metrics itself; rule-counter bumps and provenance
     happen once, in [combine_rule_opt]. *)
  let note_call kappa =
    if Obs.Metrics.on () then begin
      Obs.Metrics.incr "dst.combine.calls";
      Obs.Metrics.observe "dst.combine.conflict_kappa" (N.to_float kappa)
    end

  (* The conjunctive table of two operands and its conflict κ. [extra]
     reserves room for sets the rule adds afterwards. *)
  let conjunctive ?(extra = 0) m1 m2 =
    check_frames m1 m2;
    let tb = table (width m1) ((count m1 * count m2) + extra) in
    let kappa = ref N.zero in
    cross m1 m2
      ~emit:(fun z p -> accumulate tb z 0 p)
      ~emit_conflict:(fun _ _ p -> kappa := N.add !kappa p);
    note_call !kappa;
    (tb, !kappa)

  let dempster_raw m1 m2 =
    let tb, kappa = conjunctive m1 m2 in
    if tb.n = 0 then begin
      Obs.Metrics.incr "dst.combine.total_conflict";
      None
    end
    else
      let norm = N.sub N.one kappa in
      (* Guard against float drift making norm ≤ 0 while some non-empty
         product survived (cannot happen with exact arithmetic). *)
      if N.compare norm N.zero <= 0 then begin
        Obs.Metrics.incr "dst.combine.total_conflict";
        None
      end
      else Some (freeze ~scale:(fun x -> N.div x norm) m1.frame tb, kappa)

  let yager_raw m1 m2 =
    let tb, kappa = conjunctive ~extra:1 m1 m2 in
    (* Exact zero test, not the tolerance of [N.equal]: any conflict
       mass at all moves to Ω (keeping Σm = 1 exactly). *)
    if N.compare kappa N.zero <> 0 then
      accumulate tb (Domain.full_mask m1.frame) 0 kappa;
    (freeze m1.frame tb, kappa)

  let dubois_prade_raw m1 m2 =
    check_frames m1 m2;
    let tb = table (width m1) (count m1 * count m2) in
    let u = Array.make (width m1) 0 in
    let kappa = ref N.zero in
    cross m1 m2
      ~emit:(fun z p -> accumulate tb z 0 p)
      ~emit_conflict:(fun i j p ->
        kappa := N.add !kappa p;
        union_into u m1 i m2 j;
        accumulate tb u 0 p);
    note_call !kappa;
    (freeze m1.frame tb, !kappa)

  let average_raw m1 m2 =
    check_frames m1 m2;
    (* κ is reported for observability (the escalation policy measures
       it independently); averaging itself neither resolves nor
       redistributes it. *)
    let kappa = conflict m1 m2 in
    note_call kappa;
    let half = N.div N.one (N.add N.one N.one) in
    let w = width m1 in
    let tb = table w (count m1 + count m2) in
    List.iter
      (fun m ->
        for k = 0 to count m - 1 do
          accumulate tb m.sets (k * w) (N.mul half m.masses.(k))
        done)
      [ m1; m2 ];
    (freeze m1.frame tb, kappa)

  let combine_yager m1 m2 = fst (yager_raw m1 m2)
  let combine_dubois_prade m1 m2 = fst (dubois_prade_raw m1 m2)
  let combine_average m1 m2 = fst (average_raw m1 m2)

  let combine_disjunctive m1 m2 =
    check_frames m1 m2;
    let tb = table (width m1) (count m1 * count m2) in
    let u = Array.make (width m1) 0 in
    for i = 0 to count m1 - 1 do
      for j = 0 to count m2 - 1 do
        union_into u m1 i m2 j;
        accumulate tb u 0 (N.mul m1.masses.(i) m2.masses.(j))
      done
    done;
    freeze m1.frame tb

  (* The [w]-word mask of focal [k], as a fresh array. *)
  let focal_mask m k =
    let w = width m in
    Array.sub m.sets (k * w) w

  let discount alpha m =
    if alpha < 0.0 || alpha > 1.0 then
      invalid_arg "Mass.discount: reliability outside [0,1]"
    else begin
      let a = N.of_float alpha in
      let scaled =
        List.fold_left
          (fun acc k -> (focal_mask m k, N.mul a m.masses.(k)) :: acc)
          [ (Domain.full_mask m.frame, N.sub N.one a) ]
          (List.init (count m) Fun.id)
      in
      (* [make_masks] merges the Ω entries and drops zeros. *)
      let result = make_masks m.frame scaled in
      if Obs.Provenance.on () && alpha < 1.0 then begin
        let src =
          Obs.Provenance.find_or_leaf (digest m) ~label:(to_string m)
        in
        let id =
          Obs.Provenance.add Obs.Provenance.Discount (to_string result)
            ~alpha ~inputs:[ src ]
        in
        Obs.Provenance.register (digest result) id
      end;
      result
    end

  (* --- rule dispatch and the escalation policy ----------------------- *)

  let combine_rule_opt ?(rule = Rule.Dempster) ?(prov = []) m1 m2 =
    if Obs.Metrics.on () then Obs.Metrics.incr (Rule.metric rule);
    match rule with
    | Rule.Dempster ->
        let r = dempster_raw m1 m2 in
        if Obs.Provenance.on () then record_combine ~prov m1 m2 r;
        r
    | Rule.Yager ->
        let res, kappa = yager_raw m1 m2 in
        let r = Some (res, kappa) in
        if Obs.Provenance.on () then
          record_combine ~rule:"yager" ~prov ~norm:(fun _ -> 1.0) m1 m2 r;
        r
    | Rule.Dubois_prade ->
        let res, kappa = dubois_prade_raw m1 m2 in
        let r = Some (res, kappa) in
        if Obs.Provenance.on () then
          record_combine ~rule:"dubois-prade" ~prov
            ~norm:(fun _ -> 1.0)
            m1 m2 r;
        r
    | Rule.Averaging ->
        let res, kappa = average_raw m1 m2 in
        let r = Some (res, kappa) in
        if Obs.Provenance.on () then
          record_combine ~rule:"averaging" ~prov ~norm:(fun _ -> 1.0) m1 m2 r;
        r
    | Rule.Discount_then_combine alpha ->
        (* Discounting both operands puts at least (1-α)² of joint mass
           on Ω ∩ Ω, so for α < 1 the Dempster leg cannot totally
           conflict. The Discount provenance nodes record themselves;
           the Combine node names the composite rule and takes the
           discounted operands as inputs, so `.why` shows the full
           derivation. *)
        let d1 = discount alpha m1 and d2 = discount alpha m2 in
        let r = dempster_raw d1 d2 in
        if Obs.Provenance.on () then
          record_combine ~rule:(Rule.to_string rule) ~prov d1 d2 r;
        r

  let combine_opt m1 m2 = combine_rule_opt m1 m2

  let combine m1 m2 =
    match combine_opt m1 m2 with
    | Some (m, _) -> m
    | None -> raise Total_conflict

  let escalation_prov primary (e : Rule.escalation) =
    [ ("escalated_from", Rule.to_string primary);
      ("kappa0", Printf.sprintf "%g" e.Rule.kappa0) ]

  let record_quarantine ~primary ~(e : Rule.escalation) ~kappa m1 m2 =
    let operand m =
      Obs.Provenance.find_or_leaf (digest m) ~label:(to_string m)
    in
    let i1 = operand m1 in
    let i2 = operand m2 in
    ignore
      (Obs.Provenance.add Obs.Provenance.Combine "(quarantined)"
         ~kappa:(N.to_float kappa) ~norm:0.0
         ~args:
           (("rule", Rule.to_string primary)
           :: ("escalation", "quarantine")
           :: [ ("kappa0", Printf.sprintf "%g" e.Rule.kappa0) ])
         ~inputs:[ i1; i2 ])

  let combine_policy ?policy m1 m2 =
    let policy =
      match policy with Some p -> p | None -> Rule.current ()
    in
    let primary = policy.Rule.primary in
    let finish ~escalated rule = function
      | Some (result, kappa) -> Combined { result; kappa; rule; escalated }
      | None -> Conflicted
    in
    match policy.Rule.escalation with
    | None ->
        finish ~escalated:false primary
          (combine_rule_opt ~rule:primary m1 m2)
    | Some e ->
        (* The threshold tests the operands' conjunctive conflict — the
           same κ Dempster would normalize away — regardless of which
           primary rule is configured, so switching primaries never
           moves the escalation boundary. Fires at κ = κ₀ exactly. *)
        let kappa = conflict m1 m2 in
        if N.to_float kappa < e.Rule.kappa0 then
          finish ~escalated:false primary
            (combine_rule_opt ~rule:primary m1 m2)
        else begin
          if Obs.Metrics.on () then
            Obs.Metrics.incr "dst.combine.escalations";
          if Obs.Log.on () then
            Obs.Log.record ~severity:Obs.Log.Warn
              ~fields:
                [ ("rule", Rule.to_string primary);
                  ("kappa", Printf.sprintf "%g" (N.to_float kappa));
                  ("kappa0", Printf.sprintf "%g" e.Rule.kappa0) ]
              Obs.Log.Escalation "combination kappa crossed the threshold";
          match e.Rule.fallback with
          | Rule.Quarantine ->
              if Obs.Provenance.on () then
                record_quarantine ~primary ~e ~kappa m1 m2;
              if Obs.Log.on () then
                Obs.Log.record ~severity:Obs.Log.Error
                  ~fields:
                    [ ("rule", Rule.to_string primary);
                      ("kappa", Printf.sprintf "%g" (N.to_float kappa)) ]
                  Obs.Log.Quarantine "escalated combination quarantined";
              Quarantined { kappa }
          | Rule.Fallback fb ->
              finish ~escalated:true fb
                (combine_rule_opt ~rule:fb
                   ~prov:(escalation_prov primary e) m1 m2)
        end

  let combine_policy_exn ?policy m1 m2 =
    match combine_policy ?policy m1 m2 with
    | Combined { result; _ } -> result
    | Conflicted -> raise Total_conflict
    | Quarantined { kappa } -> raise (Quarantined_cell (N.to_float kappa))

  let combine_many ?(rule = Rule.Dempster) ms =
    match ms with
    | [] -> raise (Invalid_mass "combine_many: empty list")
    | m :: rest -> (
        match rule with
        | Rule.Averaging ->
            (* The n-ary mixture (weight 1/n each), NOT the left fold of
               pairwise averaging — that fold would weight source i by
               2^-(n-i) because averaging is not associative. *)
            List.iter (check_frames m) rest;
            let n = N.of_float (float_of_int (List.length ms)) in
            let entries =
              List.concat_map
                (fun m ->
                  List.init (count m) (fun k ->
                      (focal_mask m k, N.div m.masses.(k) n)))
                ms
            in
            make_masks m.frame entries
        | _ ->
            List.fold_left
              (fun acc m ->
                match combine_rule_opt ~rule acc m with
                | Some (r, _) -> r
                | None -> raise Total_conflict)
              m rest)

  let condition m set = combine m (certain_set m.frame set)

  let pignistic m =
    let w = width m in
    let size = Domain.size m.frame in
    let sums = Array.make size N.zero and seen = Array.make size false in
    for k = 0 to count m - 1 do
      let card = Domain.cardinal_at w m.sets (k * w) in
      let share = N.div m.masses.(k) (N.of_float (float_of_int card)) in
      Domain.fold_at w m.sets (k * w)
        (fun i () ->
          sums.(i) <- N.add sums.(i) share;
          seen.(i) <- true)
        ()
    done;
    List.filter_map
      (fun i ->
        if seen.(i) then Some (Domain.value m.frame i, sums.(i)) else None)
      (List.init size Fun.id)

  let approximate ~max_focals m =
    if max_focals < 1 then invalid_arg "Mass.approximate: max_focals < 1"
    else if count m <= max_focals then m
    else begin
      let w = width m in
      (* Ω never counts against the budget: dropped mass lands there. *)
      let by_mass =
        List.init (count m) Fun.id
        |> List.filter (fun k -> not (Domain.is_full_at m.frame m.sets (k * w)))
        |> List.sort (fun a b -> N.compare m.masses.(b) m.masses.(a))
      in
      let keep_count = max_focals - 1 in
      let rec split i kept = function
        | [] -> (kept, N.zero)
        | k :: rest ->
            if i < keep_count then
              split (i + 1) ((focal_mask m k, m.masses.(k)) :: kept) rest
            else
              ( kept,
                List.fold_left
                  (fun acc j -> N.add acc m.masses.(j))
                  m.masses.(k) rest )
      in
      let kept, dropped = split 0 [] by_mass in
      let omega = Domain.full_mask m.frame in
      let omega_mass = N.add (mass_at m omega 0) dropped in
      make_masks m.frame ((omega, omega_mass) :: kept)
    end

  let best_by measure m =
    let single = Domain.empty_mask m.frame in
    let best = ref None in
    for i = 0 to Domain.size m.frame - 1 do
      Array.fill single 0 (Array.length single) 0;
      Domain.add_bit single i;
      let score = measure m single in
      match !best with
      | Some (_, s) when N.compare s score >= 0 -> ()
      | _ -> best := Some (Domain.value m.frame i, score)
    done;
    match !best with
    | Some (v, _) -> v
    | None -> raise (Invalid_mass "empty frame")

  let max_bel m = best_by bel_mask m
  let max_pls m = best_by pls_mask m

  let equal m1 m2 =
    Domain.equal m1.frame m2.frame
    && count m1 = count m2
    &&
    let w = width m1 in
    let rec go k =
      k = count m1
      || N.equal m1.masses.(k) (mass_at m2 m1.sets (k * w)) && go (k + 1)
    in
    go 0

  (* A total order consistent with structural identity (exact masses, not
     the tolerance of [equal]) so mass functions can key maps.
     Lexicographic over (set, mass) pairs in focal order, a shorter
     assignment first: [Map.compare]'s order. *)
  let compare m1 m2 =
    let c = Domain.compare m1.frame m2.frame in
    if c <> 0 then c
    else
      let w = width m1 and n1 = count m1 and n2 = count m2 in
      let rec go k =
        if k = n1 || k = n2 then Int.compare n1 n2
        else
          let c = Domain.compare_at w m1.sets (k * w) m2.sets (k * w) in
          if c <> 0 then c
          else
            let c = N.compare m1.masses.(k) m2.masses.(k) in
            if c <> 0 then c else go (k + 1)
      in
      go 0
end

module F = Make (Num.Float)
