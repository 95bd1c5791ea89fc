(* Bit-exact relation equality, shared by the conformance, store and
   executor suites. Stricter than Erm.Relation.equal: supports and
   masses are compared with Float.equal, not a tolerance, so a
   reordering of Dempster combinations that moves even the last ulp is
   a difference. *)

let support s1 s2 =
  Float.equal (Dst.Support.sn s1) (Dst.Support.sn s2)
  && Float.equal (Dst.Support.sp s1) (Dst.Support.sp s2)

(* Same frame, focal sets and bit-identical masses: [Mass.F.compare]
   compares masses with Float.compare. *)
let evidence e1 e2 = Dst.Mass.F.compare e1 e2 = 0

let cell c1 c2 =
  match (c1, c2) with
  | Erm.Etuple.Definite v1, Erm.Etuple.Definite v2 ->
      Dst.Value.compare v1 v2 = 0
  | Erm.Etuple.Evidence e1, Erm.Etuple.Evidence e2 -> evidence e1 e2
  | Erm.Etuple.Definite _, Erm.Etuple.Evidence _
  | Erm.Etuple.Evidence _, Erm.Etuple.Definite _ ->
      false

let tuple t1 t2 =
  List.compare Dst.Value.compare (Erm.Etuple.key t1) (Erm.Etuple.key t2) = 0
  && List.length (Erm.Etuple.cells t1) = List.length (Erm.Etuple.cells t2)
  && List.for_all2 cell (Erm.Etuple.cells t1) (Erm.Etuple.cells t2)
  && support (Erm.Etuple.tm t1) (Erm.Etuple.tm t2)

let rel_equal r1 r2 =
  Erm.Relation.cardinal r1 = Erm.Relation.cardinal r2
  && List.for_all
       (fun t1 ->
         match Erm.Relation.find_opt r2 (Erm.Etuple.key t1) with
         | Some t2 -> tuple t1 t2
         | None -> false)
       (Erm.Relation.tuples r1)

(* The float text rule as a format-and-reparse loop: the shortest of
   %.15g/%.16g/%.17g that reads back to the same double. It is the
   oracle for Erm.Io.add_float, which computes the same bytes without
   formatting or parsing. *)
external format_float : string -> float -> string = "caml_format_float"

let shortest x =
  let exact s =
    match float_of_string_opt s with
    | Some y -> Float.equal y x
    | None -> false
  in
  let s = format_float "%.15g" x in
  if exact s then s
  else
    let s = format_float "%.16g" x in
    if exact s then s else format_float "%.17g" x
