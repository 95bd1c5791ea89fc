module Key = struct
  type t = Dst.Value.t list

  let compare = List.compare Dst.Value.compare
end

module Kmap = Map.Make (Key)

type t = { schema : Schema.t; tuples : Etuple.t Kmap.t }

exception Relation_error of string
exception Duplicate_key of Dst.Value.t list

let empty schema = { schema; tuples = Kmap.empty }

let add_unchecked r tuple =
  let key = Etuple.key tuple in
  if Kmap.mem key r.tuples then raise (Duplicate_key key)
  else { r with tuples = Kmap.add key tuple r.tuples }

let pp_key =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    Dst.Value.pp

let add r tuple =
  if not (Dst.Support.positive (Etuple.tm tuple)) then
    raise
      (Relation_error
         (Format.asprintf
            "CWA_ER violation: tuple %a has sn = 0 and cannot be stored"
            pp_key (Etuple.key tuple)))
  else add_unchecked r tuple

let of_tuples schema ts = List.fold_left add (empty schema) ts
let of_tuples_unchecked schema ts =
  List.fold_left add_unchecked (empty schema) ts

let replace r tuple =
  let r = { r with tuples = Kmap.remove (Etuple.key tuple) r.tuples } in
  add r tuple

let remove r key = { r with tuples = Kmap.remove key r.tuples }
let schema r = r.schema
let cardinal r = Kmap.cardinal r.tuples
let is_empty r = Kmap.is_empty r.tuples

let find r key =
  match Kmap.find_opt key r.tuples with
  | Some t -> t
  | None -> raise Not_found

let find_opt r key = Kmap.find_opt key r.tuples
let mem r key = Kmap.mem key r.tuples
let tuples r = List.map snd (Kmap.bindings r.tuples)
let fold f r acc = Kmap.fold (fun _ t acc -> f t acc) r.tuples acc
let iter f r = Kmap.iter (fun _ t -> f t) r.tuples
let filter p r =
  let tuples = Kmap.filter (fun _ t -> p t) r.tuples in
  if tuples == r.tuples then r else { r with tuples }
let for_all p r = Kmap.for_all (fun _ t -> p t) r.tuples
let exists p r = Kmap.exists (fun _ t -> p t) r.tuples

(* A mapped or merged tuple must sit under the key it came from: the
   structural passes below rebuild the map in place, so a moved key
   would leave the map out of order. *)
let check_key k t' =
  if not (Etuple.has_key t' k) then
    raise
      (Relation_error
         (Format.asprintf "key (%a) changed to (%a) by a key-preserving map"
            pp_key k pp_key (Etuple.key t')))

(* Results of the extended operators keep only sn > 0 tuples: the
   closure property of §3.6. *)
let keep k = function
  | Some t' when Dst.Support.positive (Etuple.tm t') ->
      check_key k t';
      Some t'
  | Some _ | None -> None

(* [Kmap.filter_map] calls its function in ascending key order. *)
let map_tuples f schema r =
  { schema; tuples = Kmap.filter_map (fun k t -> keep k (f t)) r.tuples }

(* [Kmap.merge] calls its function in post-order, so it only pairs the
   operands; [f] runs in the ascending [filter_map] pass. *)
let merge f schema a b =
  let pairs = Kmap.merge (fun _ x y -> Some (x, y)) a.tuples b.tuples in
  { schema; tuples = Kmap.filter_map (fun k (x, y) -> keep k (f x y)) pairs }

let split r key =
  let lo, at, hi = Kmap.split key r.tuples in
  let hi = match at with Some t -> Kmap.add key t hi | None -> hi in
  ({ r with tuples = lo }, { r with tuples = hi })

(* Once the seam is checked the operands are range-disjoint, so the
   structural union only splits along the spines that meet at the seam
   and never consults its function. *)
let append a b =
  match (Kmap.max_binding_opt a.tuples, Kmap.min_binding_opt b.tuples) with
  | None, _ -> { a with tuples = b.tuples }
  | _, None -> a
  | Some (last, _), Some (first, _) ->
      if Key.compare last first >= 0 then raise (Duplicate_key first);
      { a with tuples = Kmap.union (fun _ x _ -> Some x) a.tuples b.tuples }

let disjoint_union a b =
  { a with
    tuples = Kmap.union (fun k _ _ -> raise (Duplicate_key k)) a.tuples b.tuples
  }

let equal a b =
  Schema.union_compatible a.schema b.schema
  && Kmap.equal Etuple.equal a.tuples b.tuples

let satisfies_cwa r = for_all (fun t -> Dst.Support.positive (Etuple.tm t)) r

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@,%a@]" Schema.pp r.schema
    (Format.pp_print_list
       ~pp_sep:Format.pp_print_cut
       (fun ppf t -> Etuple.pp r.schema ppf t))
    (tuples r)
