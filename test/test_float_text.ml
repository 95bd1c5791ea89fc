(* Erm.Io.add_float against the format-and-reparse oracle
   (Exact.shortest): a pinned edge corpus whose bytes were worked out by
   hand, a differential over a million doubles (ten million with
   [--doubles 10000000]), and the round-trip property.

   Run by hand: dune exec test/test_float_text.exe [-- --doubles N] *)

let print x =
  let b = Buffer.create 32 in
  Erm.Io.add_float b x;
  Buffer.contents b

(* The doubles the differential draws, overridable by [--doubles N]
   before Alcotest's own arguments. *)
let doubles, argv =
  let rec split n acc = function
    | "--doubles" :: v :: rest -> split (int_of_string v) acc rest
    | a :: rest -> split n (a :: acc) rest
    | [] -> (n, Array.of_list (List.rev acc))
  in
  split 1_000_000 [] (Array.to_list Sys.argv)

(* (x, bytes). Why each is here:
   - 1/3, 2/3: 15 digits miss by more than half an ulp, 16 suffice.
   - powers of two: the interval below is half as wide as above; 2^60's
     16-digit decimal lies above it, inside the wide side.
   - subnormals: absolute ulp 2^-1074, so 15 digits already round-trip
     at the bottom while min_float needs 17.
   - 1e15 + 1/8 and its predecessor: a 17- and a 16-digit winner in the
     %f layout; 1e15 itself wins at 15 digits, where P = 15 puts it in
     %e layout.
   - 1e17 - 16: the 16-digit winner has exponent 16 >= P, so %e.
   - 1 + 2^-17 = 1.00000762939453125 is an exact tie at 17 digits and
     rounds to the even ...12.
   - 1e-5 vs 1e-4: the %e switch below exponent -4. *)
let edges =
  [ (0., "0");
    (-0., "-0");
    (1., "1");
    (-1.5, "-1.5");
    (0.1, "0.1");
    (0.3, "0.3");
    (1. /. 3., "0.3333333333333333");
    (2. /. 3., "0.6666666666666666");
    (0.2 /. 0.3, "0.6666666666666667");
    (1. /. 7., "0.14285714285714285");
    (ldexp 1. (-1074), "4.94065645841247e-324");
    (ldexp 1. (-1073), "9.88131291682493e-324");
    (Float.pred min_float, "2.225073858507201e-308");
    (min_float, "2.2250738585072014e-308");
    (max_float, "1.7976931348623157e+308");
    (ldexp 1. (-10), "0.0009765625");
    (ldexp 1. (-60), "8.673617379884035e-19");
    (Float.pred (ldexp 1. (-60)), "8.6736173798840345e-19");
    (ldexp 1. 53, "9007199254740992");
    (Float.pred (ldexp 1. 53), "9007199254740991");
    (ldexp 1. 60, "1.152921504606847e+18");
    (Float.pred 1., "0.9999999999999999");
    (Float.succ 1., "1.0000000000000002");
    (Float.pred 0.1, "0.09999999999999999");
    (Float.succ 0.1, "0.10000000000000002");
    (0.123456789012345, "0.123456789012345");
    (Float.succ 0.123456789012345, "0.12345678901234501");
    (Float.pred 0.123456789012345, "0.12345678901234498");
    (0.1234567890123456, "0.1234567890123456");
    (Float.succ 0.1234567890123456, "0.12345678901234561");
    (Float.pred 0.1234567890123456, "0.12345678901234558");
    (1e-5, "1e-05");
    (Float.pred 1e-5, "9.999999999999999e-06");
    (9.99999999999999e-6, "9.99999999999999e-06");
    (1.2345e-5, "1.2345e-05");
    (1e-4, "0.0001");
    (Float.pred 1e-4, "9.999999999999999e-05");
    (0.00012345, "0.00012345");
    (999999999999999., "999999999999999");
    (1e15, "1e+15");
    (Float.pred 1e15, "999999999999999.9");
    (1e15 +. 0.125, "1000000000000000.1");
    (1e16, "1e+16");
    (1e16 -. 2., "9999999999999998");
    (Float.succ 1e16, "10000000000000002");
    (1e17, "1e+17");
    (1e17 -. 16., "9.999999999999998e+16");
    (Float.succ 1e17, "1.0000000000000002e+17");
    (123456789012345678., "1.2345678901234568e+17");
    (1. +. ldexp 1. (-17), "1.0000076293945312");
    (1e22, "1e+22");
    (1e23, "1e+23");
    (1e300, "1e+300");
    (Float.nan, "nan");
    (Float.infinity, "inf");
    (Float.neg_infinity, "-inf") ]

let test_edges () =
  List.iter
    (fun (x, bytes) ->
      let name = Printf.sprintf "%h" x in
      Alcotest.(check string) (name ^ " (oracle)") bytes (Exact.shortest x);
      Alcotest.(check string) name bytes (print x))
    edges

(* Every double within 3 ulps of each power of two, from the smallest
   subnormal to 2^1023, both signs. *)
let test_powers_of_two () =
  for e = -1074 to 1023 do
    let x = ref (Float.pred (Float.pred (Float.pred (ldexp 1. e)))) in
    for _ = 0 to 6 do
      List.iter
        (fun x ->
          if Float.is_finite x then
            Alcotest.(check string) (Printf.sprintf "%h" x) (Exact.shortest x)
              (print x))
        [ !x; -. !x ];
      x := Float.succ !x
    done
  done

(* Each generated mass and support, as the store and the .erd writer
   print them: Gen relations, their union, and every Scenario group with
   its Dempster combination. *)
let corpus_floats () =
  let rng = Workload.Rng.create 1 in
  let schema = Workload.Gen.schema ~evidential:3 "floats" in
  let a, b = Workload.Gen.source_pair rng ~focals:4 ~size:2000 ~overlap:0.5 schema in
  let of_relation r =
    Erm.Relation.fold
      (fun t acc ->
        List.concat_map
          (function
            | Erm.Etuple.Definite _ -> []
            | Erm.Etuple.Evidence e -> List.map snd (Dst.Mass.F.focals e))
          (Erm.Etuple.cells t)
        @ (Dst.Support.sn (Erm.Etuple.tm t) :: Dst.Support.sp (Erm.Etuple.tm t)
          :: acc))
      r []
  in
  let domain = Workload.Gen.domain ~size:6 "sc" in
  let scenario =
    List.concat_map
      (fun (_, group) ->
        let combined =
          match Dst.Mass.F.combine_many group with
          | m -> [ m ]
          | exception Dst.Mass.F.Total_conflict -> []
        in
        List.concat_map
          (fun m -> List.map snd (Dst.Mass.F.focals m))
          (combined @ group))
      (List.concat_map
         (fun seed -> Workload.Scenario.corpus ~seed ~per_kind:20 domain)
         [ 1; 2; 3 ])
  in
  List.concat
    [ of_relation a; of_relation b; of_relation (Erm.Ops.union a b); scenario ]

let check_all what xs =
  let bad = ref [] and n = ref 0 in
  Seq.iter
    (fun x ->
      incr n;
      let s = print x in
      if s <> Exact.shortest x || not (Float.equal (float_of_string s) x) then
        bad := x :: !bad)
    xs;
  match !bad with
  | [] -> ()
  | x :: _ ->
      Alcotest.failf "%s: %d of %d doubles differ, e.g. %h: %s vs oracle %s"
        what (List.length !bad) !n x (print x) (Exact.shortest x)

let test_corpus () =
  let xs = corpus_floats () in
  Alcotest.(check bool) "corpus is not trivial" true (List.length xs > 10_000);
  check_all "workload masses" (List.to_seq xs)

(* Uniform [0, 1], then uniform bit patterns over every finite binary
   exponent (each exponent equally likely, random significand and
   sign), half of [doubles] each. *)
let test_differential () =
  let st = Random.State.make [| 25 |] in
  let half = doubles / 2 in
  check_all "uniform [0,1]"
    (Seq.init half (fun _ -> Random.State.float st 1.));
  check_all "every exponent"
    (Seq.init (doubles - half) (fun _ ->
         let exp = Random.State.int st 2047 in
         let mant = Random.State.int64 st 0x10_0000_0000_0000L in
         let sign = if Random.State.bool st then Int64.min_int else 0L in
         Int64.float_of_bits
           (Int64.logor sign
              (Int64.logor (Int64.shift_left (Int64.of_int exp) 52) mant))))

let finite_bits =
  QCheck.make ~print:(Printf.sprintf "%h")
    QCheck.Gen.(
      map
        (fun b ->
          let x = Int64.float_of_bits b in
          if Float.is_finite x then x else Float.of_int (Int64.to_int b))
        ui64)

let prop_roundtrip =
  QCheck.Test.make ~name:"float_of_string (print x) = x for finite x"
    ~count:20_000 finite_bits (fun x -> Float.equal (float_of_string (print x)) x)

let () =
  Alcotest.run ~argv "float_text"
    [ ( "printer",
        [ Alcotest.test_case "edge corpus" `Quick test_edges;
          Alcotest.test_case "powers of two and neighbours" `Quick
            test_powers_of_two;
          Alcotest.test_case "workload masses" `Quick test_corpus;
          Alcotest.test_case "differential vs format-and-reparse" `Quick
            test_differential;
          QCheck_alcotest.to_alcotest prop_roundtrip ] ) ]
