type cell = Definite of Dst.Value.t | Evidence of Dst.Evidence.t

type t = {
  key : Dst.Value.t array;
  cells : cell array;
  tm : Dst.Support.t;
}

exception Tuple_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Tuple_error s)) fmt

let check_cell attr cell =
  match (Attr.kind attr, cell) with
  | Attr.Definite _, Definite v ->
      if not (Attr.value_kind_ok attr v) then
        fail "attribute %s expects a %s value, got %s" (Attr.name attr)
          (match Attr.kind attr with Attr.Definite k -> k | _ -> assert false)
          (Dst.Value.kind_name v)
  | Attr.Definite _, Evidence _ ->
      fail "attribute %s is definite but was given an evidence set"
        (Attr.name attr)
  | Attr.Evidential d, Evidence e ->
      if not (Dst.Domain.equal d (Dst.Mass.F.frame e)) then
        fail "evidence for %s is over the wrong frame" (Attr.name attr)
  | Attr.Evidential _, Definite _ ->
      fail
        "attribute %s is evidential; wrap the value with Evidence (definite …)"
        (Attr.name attr)

let make schema ~key ~cells ~tm =
  let key_attrs = Schema.key schema and nonkey = Schema.nonkey schema in
  if List.length key <> List.length key_attrs then
    fail "relation %s expects %d key values, got %d" (Schema.name schema)
      (List.length key_attrs) (List.length key);
  List.iter2
    (fun attr v ->
      if not (Attr.value_kind_ok attr v) then
        fail "key attribute %s expects a %s value" (Attr.name attr)
          (Dst.Value.kind_name v))
    key_attrs key;
  if List.length cells <> List.length nonkey then
    fail "relation %s expects %d non-key cells, got %d" (Schema.name schema)
      (List.length nonkey) (List.length cells);
  List.iter2 check_cell nonkey cells;
  { key = Array.of_list key; cells = Array.of_list cells; tm }

let of_assoc schema ~key ~cells ~tm =
  let lookup attr =
    match List.assoc_opt (Attr.name attr) cells with
    | Some c -> c
    | None -> fail "missing cell for attribute %s" (Attr.name attr)
  in
  List.iter
    (fun (n, _) ->
      match Schema.find_opt schema n with
      | None -> fail "unknown attribute %s" n
      | Some a ->
          if List.exists (fun k -> Attr.equal k a) (Schema.key schema) then
            fail "key attribute %s must be passed in ~key" n)
    cells;
  make schema ~key ~cells:(List.map lookup (Schema.nonkey schema)) ~tm

let key t = Array.to_list t.key
let key_at t i = t.key.(i)
let cell_at t i = t.cells.(i)
let cells t = Array.to_list t.cells
let tm t = t.tm
let with_tm tm t = { t with tm }

let cell schema t name =
  match Schema.find_opt schema name with
  | None -> raise Not_found
  | Some attr ->
      if Schema.is_key schema (Attr.name attr) then
        Definite t.key.(Schema.key_index schema name)
      else t.cells.(Schema.nonkey_index schema name)

let evidence schema t name =
  match cell schema t name with
  | Evidence e -> e
  | Definite _ -> fail "attribute %s holds a definite value, not evidence" name

let definite_value schema t name =
  match cell schema t name with
  | Definite v -> v
  | Evidence _ -> fail "attribute %s holds evidence, not a definite value" name

let cell_equal a b =
  match (a, b) with
  | Definite x, Definite y -> Dst.Value.equal x y
  | Evidence x, Evidence y -> Dst.Mass.F.equal x y
  | Definite _, Evidence _ | Evidence _, Definite _ -> false

let key_equal a b =
  Array.length a.key = Array.length b.key
  && Array.for_all2 Dst.Value.equal a.key b.key

let has_key t k =
  let n = Array.length t.key in
  let rec go i = function
    | [] -> i = n
    | v :: rest -> i < n && Dst.Value.equal t.key.(i) v && go (i + 1) rest
  in
  go 0 k

let equal a b =
  key_equal a b
  && Array.length a.cells = Array.length b.cells
  && Array.for_all2 cell_equal a.cells b.cells
  && Dst.Support.equal a.tm b.tm

let combine_with ~combine_evidence schema a b =
  if not (key_equal a b) then fail "combine: keys differ";
  let merge_cell attr x y =
    match (x, y) with
    | Definite v, Definite w ->
        if Dst.Value.equal v w then Definite v
        else
          fail "definite attribute %s disagrees: %s vs %s" (Attr.name attr)
            (Dst.Value.to_string v) (Dst.Value.to_string w)
    | Evidence e, Evidence f -> Evidence (combine_evidence e f)
    | Definite _, Evidence _ | Evidence _, Definite _ ->
        fail "attribute %s mixes definite and evidential cells"
          (Attr.name attr)
  in
  let nonkey = Array.of_list (Schema.nonkey schema) in
  let cells =
    Array.init (Array.length a.cells) (fun i ->
        merge_cell nonkey.(i) a.cells.(i) b.cells.(i))
  in
  { key = a.key; cells; tm = Dst.Support.combine a.tm b.tm }

let combine schema a b =
  combine_with ~combine_evidence:Dst.Mass.F.combine schema a b

let project schema t names =
  let cells =
    List.filter_map
      (fun n ->
        if Schema.is_key schema n then None
        else Some t.cells.(Schema.nonkey_index schema n))
      names
  in
  { t with cells = Array.of_list cells }

let concat a b =
  { key = Array.append a.key b.key;
    cells = Array.append a.cells b.cells;
    tm = Dst.Support.f_tm a.tm b.tm }

let pp_cell ppf = function
  | Definite v -> Dst.Value.pp ppf v
  | Evidence e -> Dst.Evidence.pp ppf e

let pp schema ppf t =
  ignore schema;
  Format.fprintf ppf "@[<h>%a | %a | %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Dst.Value.pp)
    (key t)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ")
       pp_cell)
    (cells t) Dst.Support.pp t.tm
