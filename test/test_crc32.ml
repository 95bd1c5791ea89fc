(* Store.Crc32 (slicing-by-8) against the byte-at-a-time reference it
   replaced: the standard check value, every length 0-64 at several
   offsets, chained updates, and random strings under a qcheck seed. *)

(* The reference: one table lookup per byte over boxed Int32. *)
let reference_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let reference s ~pos ~len =
  let crc = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand
           (Int32.logxor !crc (Int32.of_int (Char.code s.[i])))
           0xFFl)
    in
    crc :=
      Int32.logxor reference_table.(idx) (Int32.shift_right_logical !crc 8)
  done;
  Int32.logxor !crc 0xFFFFFFFFl

let int32 = Alcotest.testable (fun ppf c -> Fmt.pf ppf "%08lx" c) Int32.equal

let test_known_answer () =
  Alcotest.(check string) "crc32(\"123456789\")" "cbf43926"
    (Store.Crc32.to_hex (Store.Crc32.digest "123456789"));
  Alcotest.check int32 "empty" 0l (Store.Crc32.digest "")

let bytes_of_seed seed n =
  let st = Random.State.make [| seed |] in
  String.init n (fun _ -> Char.chr (Random.State.int st 256))

let test_every_length () =
  let s = bytes_of_seed 32 80 in
  for pos = 0 to 9 do
    for len = 0 to 64 do
      Alcotest.check int32
        (Printf.sprintf "pos %d len %d" pos len)
        (reference s ~pos ~len)
        (Store.Crc32.update 0l s ~pos ~len)
    done
  done

(* update continues a checksum: any split of a string into pieces,
   folded through update, equals the digest of the whole. *)
let test_chained () =
  let s = bytes_of_seed 7 200 in
  let whole = reference s ~pos:0 ~len:200 in
  List.iter
    (fun cuts ->
      let crc, last =
        List.fold_left
          (fun (crc, from) cut ->
            (Store.Crc32.update crc s ~pos:from ~len:(cut - from), cut))
          (0l, 0) cuts
      in
      Alcotest.check int32
        (String.concat "," (List.map string_of_int cuts))
        whole
        (Store.Crc32.update crc s ~pos:last ~len:(200 - last)))
    [ []; [ 1 ]; [ 7; 8 ]; [ 3; 11; 64; 65; 130 ]; [ 100; 100; 199 ] ]

let test_bad_range () =
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d len %d" pos len)
        (Invalid_argument "Crc32.update")
        (fun () -> ignore (Store.Crc32.update 0l "abcdef" ~pos ~len)))
    [ (-1, 2); (0, 7); (5, 2); (2, -1) ]

let prop_reference =
  QCheck.Test.make ~name:"update = byte-at-a-time reference" ~count:500
    QCheck.(triple string small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      Int32.equal (reference s ~pos ~len) (Store.Crc32.update 0l s ~pos ~len))

let () =
  Alcotest.run "crc32"
    [ ( "crc32",
        [ Alcotest.test_case "known answer" `Quick test_known_answer;
          Alcotest.test_case "lengths 0-64 at offsets 0-9" `Quick
            test_every_length;
          Alcotest.test_case "chained updates" `Quick test_chained;
          Alcotest.test_case "range outside the string" `Quick test_bad_range;
          QCheck_alcotest.to_alcotest prop_reference ] ) ]
