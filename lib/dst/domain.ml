type t = {
  name : string;
  values : Vset.t;
  elems : Value.t array;  (* ascending: value [i] is bit [i] *)
  words : int;
  full : int array;  (* Ω's mask; shared, never written after [make] *)
}

type mask = int array

exception Empty_domain of string

let word_bits = 62

let make name values =
  if Vset.is_empty values then raise (Empty_domain name)
  else
    let elems = Array.of_list (Vset.to_list values) in
    let n = Array.length elems in
    let words = (n + word_bits - 1) / word_bits in
    let full =
      Array.init words (fun k ->
          (1 lsl min word_bits (n - (k * word_bits))) - 1)
    in
    { name; values; elems; words; full }

let of_strings name atoms = make name (Vset.of_strings atoms)
let of_values name vs = make name (Vset.of_list vs)
let name d = d.name
let values d = d.values
let size d = Array.length d.elems
let words d = d.words
let value d i = d.elems.(i)

let rec search elems v lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let c = Value.compare v elems.(mid) in
    if c = 0 then mid
    else if c < 0 then search elems v lo mid
    else search elems v (mid + 1) hi

let index d v = search d.elems v 0 (Array.length d.elems)
let mem v d = index d v >= 0
let subset s d = Vset.subset s d.values

(* Lexicographic over the ascending values: [Vset.compare] of the two
   value sets. *)
let rec compare_elems a b i =
  if i = Array.length a then if i = Array.length b then 0 else -1
  else if i = Array.length b then 1
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_elems a b (i + 1)

let compare a b = if a == b then 0 else compare_elems a.elems b.elems 0
let equal a b = a == b || compare_elems a.elems b.elems 0 = 0

let boolean =
  make "membership" (Vset.of_list [ Value.bool true; Value.bool false ])

let pp ppf d = Format.fprintf ppf "%s = %a" d.name Vset.pp d.values
let to_string d = Format.asprintf "%a" pp d

(* --- masks ----------------------------------------------------------- *)

let add_bit m i =
  let k = i / word_bits in
  m.(k) <- m.(k) lor (1 lsl (i mod word_bits))

let empty_mask d = Array.make d.words 0
let full_mask d = d.full

let mask d s =
  let m = empty_mask d in
  Vset.iter
    (fun v ->
      let i = index d v in
      if i >= 0 then add_bit m i)
    s;
  m

(* Whether a word at or after [a.(i + k)] (of [w]) is non-zero. *)
let rec any_from w a i k = k < w && (a.(i + k) <> 0 || any_from w a i (k + 1))

(* The order rule. Let d be the lowest bit of the lowest differing word:
   the value there is the first element on which the ascending element
   lists differ. If d is in [a], then [a < b] iff [b] has an element above
   d; otherwise [a > b] iff [a] has one. [-(low lsl 1)] keeps the bits
   above [low] (for [low] = bit 61 it is the sign bit, never set). *)
let compare_at w a i b j =
  let k = ref 0 in
  while !k < w && a.(i + !k) = b.(j + !k) do
    incr k
  done;
  let k = !k in
  if k = w then 0
  else
    let x = a.(i + k) and y = b.(j + k) in
    let d = x lxor y in
    let low = d land -d in
    let above = -(low lsl 1) in
    if x land low <> 0 then
      if y land above <> 0 || any_from w b j (k + 1) then -1 else 1
    else if x land above <> 0 || any_from w a i (k + 1) then 1
    else -1

let subset_at w a i b j =
  let k = ref 0 in
  while !k < w && a.(i + !k) land lnot b.(j + !k) = 0 do
    incr k
  done;
  !k = w

let disjoint_at w a i b j =
  let k = ref 0 in
  while !k < w && a.(i + !k) land b.(j + !k) = 0 do
    incr k
  done;
  !k = w

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

let cardinal_at w a i =
  let n = ref 0 in
  for k = 0 to w - 1 do
    n := !n + popcount a.(i + k)
  done;
  !n

(* Frame indices of the set bits, ascending. *)
let fold_at w a i f acc =
  let acc = ref acc in
  for k = 0 to w - 1 do
    let x = ref a.(i + k) and n = ref (k * word_bits) in
    while !x <> 0 do
      if !x land 1 <> 0 then acc := f !n !acc;
      x := !x lsr 1;
      incr n
    done
  done;
  !acc

(* Whether some value of the set satisfies [p]: ascending, stopping at
   the first that does. *)
let exists_at d a i p =
  let found = ref false and k = ref 0 in
  while (not !found) && !k < d.words do
    let x = ref a.(i + !k) and n = ref (!k * word_bits) in
    while (not !found) && !x <> 0 do
      if !x land 1 <> 0 && p d.elems.(!n) then found := true;
      x := !x lsr 1;
      incr n
    done;
    incr k
  done;
  !found

let vset_at d a i =
  fold_at d.words a i (fun n acc -> Vset.add d.elems.(n) acc) Vset.empty

let is_full_at d a i = compare_at d.words a i d.full 0 = 0

(* The .erd notation of a non-Ω set: a singleton is its value, any other
   set [{v1, v2, …}]. *)
let add_set_at buf d a i =
  let braced = cardinal_at d.words a i <> 1 in
  if braced then Buffer.add_char buf '{';
  ignore
    (fold_at d.words a i
       (fun n first ->
         if not first then Buffer.add_string buf ", ";
         Buffer.add_string buf (Value.to_string d.elems.(n));
         false)
       true);
  if braced then Buffer.add_char buf '}'
