type cmp = Eq | Ne | Lt | Le | Gt | Ge
type operand = Field of string | Const of Etuple.cell

type t =
  | Is of string * Dst.Vset.t
  | Theta of cmp * operand * operand
  | Theta_fe of cmp * operand * operand
  | And of t * t
  | Or of t * t
  | Not of t
  | Const_true

exception Predicate_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Predicate_error s)) fmt
let is_ a set = Is (a, set)
let is_values a atoms = Is (a, Dst.Vset.of_strings atoms)
let theta cmp x y = Theta (cmp, x, y)
let theta_fe cmp x y = Theta_fe (cmp, x, y)
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let not_ a = Not a

let rec paper_fragment = function
  | Is _ -> true
  | Theta (Ne, _, _) -> false
  | Theta _ -> true
  | Theta_fe _ -> false
  | And (a, b) -> paper_fragment a && paper_fragment b
  | Or _ | Not _ -> false
  | Const_true -> true

(* θ on individual values. Equality across kinds is simply false;
   ordered comparisons across kinds are type errors. *)
let holds cmp x y =
  match cmp with
  | Eq -> Dst.Value.equal x y
  | Ne -> not (Dst.Value.equal x y)
  | Lt -> Dst.Value.compare_ordered x y < 0
  | Le -> Dst.Value.compare_ordered x y <= 0
  | Gt -> Dst.Value.compare_ordered x y > 0
  | Ge -> Dst.Value.compare_ordered x y >= 0

(* --- compiled predicates ----------------------------------------------- *)

(* Where a named attribute's cell sits: in the tuple (the left one of a
   pair) or the right one, as a key value or a non-key cell. *)
type slot = { right : bool; key : bool; pos : int }

type operand_c = Slot of slot | Literal of Etuple.cell | Missing of string

type compiled =
  | C_true
  | C_is of operand_c * Dst.Vset.t * (Dst.Domain.t * Dst.Domain.mask) option
      (** The constant masked once, against the attribute's frame. *)
  | C_theta of bool * cmp * operand_c * operand_c  (** [true]: ∀∃ *)
  | C_and of compiled * compiled
  | C_or of compiled * compiled
  | C_not of compiled

let slot_in ~right schema a =
  match Schema.find_opt schema a with
  | None -> None
  | Some attr ->
      let name = Attr.name attr in
      let slot =
        if Schema.is_key schema name then
          { right; key = true; pos = Schema.key_index schema name }
        else { right; key = false; pos = Schema.nonkey_index schema name }
      in
      Some (slot, attr)

let compile_with find pred =
  let field a =
    match find a with Some (slot, _) -> Slot slot | None -> Missing a
  in
  let operand = function Field a -> field a | Const c -> Literal c in
  let rec go = function
    | Const_true -> C_true
    | Is (a, set) ->
        let masked =
          Option.bind (find a) (fun (_, attr) ->
              Option.map
                (fun d -> (d, Dst.Domain.mask d set))
                (Attr.domain attr))
        in
        C_is (field a, set, masked)
    | Theta (cmp, x, y) -> C_theta (false, cmp, operand x, operand y)
    | Theta_fe (cmp, x, y) -> C_theta (true, cmp, operand x, operand y)
    | And (a, b) -> C_and (go a, go b)
    | Or (a, b) -> C_or (go a, go b)
    | Not a -> C_not (go a)
  in
  go pred

let compile schema pred = compile_with (slot_in ~right:false schema) pred

let compile_product left_schema right_schema pred =
  compile_with
    (fun a ->
      match slot_in ~right:false left_schema a with
      | Some _ as found -> found
      | None -> slot_in ~right:true right_schema a)
    pred

let cell_of left right = function
  | Slot { right = r; key; pos } ->
      let t = if r then right else left in
      if key then Etuple.Definite (Etuple.key_at t pos)
      else Etuple.cell_at t pos
  | Literal c -> c
  | Missing a -> fail "unknown attribute %s" a

(* A cell's focal decomposition, visited in place: a definite value is a
   certain singleton, an evidence set contributes its focal elements in
   order, each read from its mask. *)
let focal_count = function
  | Etuple.Definite _ -> 1
  | Etuple.Evidence e -> Dst.Mass.F.focal_count e

let focal_mass c k =
  match c with
  | Etuple.Definite _ -> 1.0
  | Etuple.Evidence e -> Dst.Mass.F.focal_mass e k

(* Whether some value of focal [k] satisfies [p], in ascending order. *)
let focal_exists c k p =
  match c with
  | Etuple.Definite v -> p v
  | Etuple.Evidence e ->
      let d = Dst.Mass.F.frame e in
      let w = Dst.Domain.words d in
      Dst.Domain.exists_at d (Dst.Mass.F.focal_sets e) (k * w) p

let focal_for_all c k p = not (focal_exists c k (fun v -> not (p v)))

(* [necessarily] decides whether a focal pair contributes to sn: ∀∀ for
   the paper's formal definition, ∀∃ (~fe) for the variant its worked
   example uses. The sp side is ∃∃ in both. *)
let theta_support ~fe cmp a b =
  let sn = ref 0.0 and sp = ref 0.0 in
  for i = 0 to focal_count a - 1 do
    let mx = focal_mass a i in
    for j = 0 to focal_count b - 1 do
      let p = mx *. focal_mass b j in
      let necessarily =
        focal_for_all a i (fun x ->
            (if fe then focal_exists else focal_for_all) b j (holds cmp x))
      in
      if necessarily then sn := !sn +. p;
      if focal_exists a i (fun x -> focal_exists b j (holds cmp x)) then
        sp := !sp +. p
    done
  done;
  Dst.Support.make ~sn:!sn ~sp:!sp

let is_support cell set masked =
  match cell with
  | Etuple.Definite v -> Dst.Support.of_bool (Dst.Vset.mem v set)
  | Etuple.Evidence e -> (
      match masked with
      | Some (d, mask) when Dst.Domain.equal d (Dst.Mass.F.frame e) ->
          Dst.Support.make ~sn:(Dst.Mass.F.bel_mask e mask)
            ~sp:(Dst.Mass.F.pls_mask e mask)
      | _ ->
          let bel, pls = Dst.Mass.F.interval e set in
          Dst.Support.make ~sn:bel ~sp:pls)

let eval_pair c left right =
  let cell = cell_of left right in
  let rec go = function
    | C_true -> Dst.Support.certain
    | C_is (a, set, masked) -> is_support (cell a) set masked
    | C_theta (fe, cmp, x, y) -> theta_support ~fe cmp (cell x) (cell y)
    | C_and (a, b) -> Dst.Support.conjunction (go a) (go b)
    | C_or (a, b) -> Dst.Support.disjunction (go a) (go b)
    | C_not a -> Dst.Support.negation (go a)
  in
  go c

let eval_compiled c t = eval_pair c t t
let eval schema tuple pred = eval_compiled (compile schema pred) tuple

let eval_product left_schema right_schema left right pred =
  eval_pair (compile_product left_schema right_schema pred) left right

let attrs_used pred =
  let rec go acc = function
    | Const_true -> acc
    | Is (a, _) -> a :: acc
    | Theta (_, x, y) | Theta_fe (_, x, y) ->
        let add acc = function Field a -> a :: acc | Const _ -> acc in
        add (add acc x) y
    | And (a, b) | Or (a, b) -> go (go acc a) b
    | Not a -> go acc a
  in
  List.sort_uniq String.compare (go [] pred)

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp ppf = function
  | Const_true -> Format.fprintf ppf "true"
  | Is (a, set) -> Format.fprintf ppf "%s is %a" a Dst.Vset.pp set
  | Theta (cmp, x, y) ->
      Format.fprintf ppf "%a %s %a" pp_operand x (cmp_to_string cmp)
        pp_operand y
  | Theta_fe (cmp, x, y) ->
      Format.fprintf ppf "%a ~%s %a" pp_operand x (cmp_to_string cmp)
        pp_operand y
  | And (a, b) -> Format.fprintf ppf "(%a and %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a or %a)" pp a pp b
  | Not a -> Format.fprintf ppf "(not %a)" pp a

and pp_operand ppf = function
  | Field a -> Format.pp_print_string ppf a
  | Const c -> Etuple.pp_cell ppf c
