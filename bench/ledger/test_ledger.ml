(* Unit tests for the ledger's order statistics and verdicts, and a
   check that BENCHMARK.json declares exactly the workloads and metrics
   the ledger reports. *)

let floats = Alcotest.(list (float 1e-12))

let tail () =
  let check n expected =
    Alcotest.(check int) (Printf.sprintf "rank for n = %d" n) expected
      (Summary.tail_rank n)
  in
  check 1000 990;
  check 131 121;
  check 20 10;
  check 19 19;
  check 1 1;
  Alcotest.(check (float 1e-9)) "percentile for n = 1000" 99.0 (Summary.tail_percent 1000);
  Alcotest.(check (float 1e-9)) "percentile for n = 80" 87.5 (Summary.tail_percent 80)

let ten_beyond () =
  (* From 20 samples on, exactly ten samples lie above the tail and it
     never falls below the median; below that the tail is the maximum. *)
  for n = 1 to 3000 do
    let a = Array.init n float_of_int in
    let v = Summary.tail a in
    let beyond = Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 a in
    let expected = if n >= 20 then 10 else 0 in
    if beyond <> expected || v < Summary.percentile a ~permille:500 then
      Alcotest.fail (Printf.sprintf "n = %d: %d samples beyond the tail" n beyond)
  done

let pace () =
  (* One op of 10 ms every 0.1 s for 30 s, the reference task timed
     every 0.5 s at 10 ms. From 6 s to 24 s the ops take 20 ms. *)
  let ops = List.init 300 (fun i -> (0.1 *. float_of_int i, if i >= 60 && i < 240 then 20.0 else 10.0)) in
  let p50 samples =
    let scaled = List.map (Summary.at_pace ~reference:10.0 samples) ops in
    Summary.percentile (Summary.sorted_array scaled) ~permille:500
  in
  let samples slow = List.init 61 (fun k -> let t = 0.5 *. float_of_int k in (t, if slow t then 20.0 else 10.0)) in
  (* A burst of slow ops on a steady machine is a slowdown of the
     program: every op counts and the median moves. *)
  Alcotest.(check (float 1e-9)) "program burst stays" 20.0 (p50 (samples (fun _ -> false)));
  (* A machine twice as slow for the same stretch scales it away. *)
  Alcotest.(check (float 1e-9)) "machine burst scaled away" 10.0
    (p50 (samples (fun t -> t >= 6.0 && t < 24.0)));
  (* Far from any sample the nearest one counts. *)
  Alcotest.(check (float 1e-9)) "nearest sample" 5.0
    (Summary.at_pace ~reference:10.0 [ (0.0, 40.0); (100.0, 20.0) ] (60.0, 10.0))

let percentile () =
  let a = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50" 5.0 (Summary.percentile a ~permille:500);
  Alcotest.(check (float 0.0)) "p90" 9.0 (Summary.percentile a ~permille:900);
  Alcotest.(check (float 0.0)) "p100" 10.0 (Summary.percentile a ~permille:1000);
  Alcotest.(check (float 0.0)) "p0 is the minimum" 1.0 (Summary.percentile a ~permille:0)

let quartiles () =
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  let q xs =
    let a, b, c = Summary.quartiles xs in
    [ a; b; c ]
  in
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ]
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check floats "three runs" [ 1.0; 2.0; 3.0 ] (q [ 3.0; 1.0; 2.0 ]);
  Alcotest.check floats "two runs" [ 0.0; 3.0; 6.0 ] (q [ 5.0; 1.0 ]);
  Alcotest.check floats "four runs" [ 1.25; 2.5; 3.75 ] (q [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-12)) "median of four" 2.5 (Summary.median [ 4.; 1.; 3.; 2. ])

let verdict () =
  let v ?(better = Summary.Lower) ?(bound = 0.1) old_runs new_runs =
    Summary.verdict_to_string (Summary.verdict ~better ~bound ~old_runs ~new_runs)
  in
  let check name expected got = Alcotest.(check string) name expected got in
  check "within the bound" "unchanged" (v [ 10.; 10.1; 9.9 ] [ 10.5; 10.4; 10.6 ]);
  check "slower by more than the bound" "regressed" (v [ 10.; 10.1; 9.9 ] [ 11.5; 11.4; 11.6 ]);
  check "faster by more than the bound" "improved" (v [ 10.; 10.1; 9.9 ] [ 8.5; 8.4; 8.6 ]);
  check "higher is better" "regressed"
    (v ~better:Summary.Higher [ 100.; 101.; 99. ] [ 80.; 81.; 79. ]);
  check "higher is better, up" "improved"
    (v ~better:Summary.Higher [ 100.; 101.; 99. ] [ 120.; 121.; 119. ]);
  check "spread wider than the bound" "unresolved" (v [ 8.; 10.; 12. ] [ 10.; 12.; 14. ]);
  check "wide spread, but every new run is better" "improved"
    (v [ 10.; 12.; 14. ] [ 6.; 7.; 9. ]);
  check "no runs" "unresolved" (v [] [ 1. ]);
  check "one run each" "regressed" (v [ 10. ] [ 12. ])

let failed () =
  let v old_counts new_counts =
    Summary.verdict_to_string (Summary.failed_verdict ~old_counts ~new_counts)
  in
  let check name expected got = Alcotest.(check string) name expected got in
  check "none fail" "unchanged" (v (0, 900) (0, 1200));
  check "one op fails" "regressed" (v (0, 900) (1, 3000));
  check "fewer fail" "improved" (v (4, 100) (1, 100));
  check "same share" "unchanged" (v (1, 100) (3, 300));
  check "a larger share" "regressed" (v (1, 100) (4, 300))

let json () =
  (* Keys already in order, since printing sorts them. *)
  let v =
    Json.Obj
      [ ("a", Json.Str "x \"y\"\n");
        ("b", Json.List [ Json.Num 1.0; Json.Num 0.1; Json.Num (-2.5e-7) ]);
        ("c", Json.Obj [ ("n", Json.Null); ("t", Json.Bool true) ]) ]
  in
  Alcotest.(check bool) "round trip" true (v = Json.parse (Json.to_string v));
  Alcotest.(check bool) "pretty round trip" true
    (v = Json.parse (Json.to_string ~indent:2 v));
  Alcotest.(check string) "keys sorted, all digits" "{\"a\": 0.1, \"b\": 3}"
    (Json.to_string (Json.Obj [ ("b", Json.Num 3.0); ("a", Json.Num 0.1) ]));
  Alcotest.(check bool) "shortest round-trip digits" true
    (float_of_string (Json.number (1.0 /. 3.0)) = 1.0 /. 3.0)

let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let b = Json.parse (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let names key =
    List.map (fun m -> Json.(to_str (member "name" m))) Json.(to_list (member key b))
  in
  Alcotest.(check (list string)) "workloads" Spec.workloads (names "workloads");
  let metrics key specs =
    List.iter
      (fun m ->
        let name = Json.(to_str (member "name" m)) in
        match Spec.find specs name with
        | None -> Alcotest.fail (key ^ ": the ledger does not report " ^ name)
        | Some s ->
            Alcotest.(check string) (name ^ " unit") s.unit_ Json.(to_str (member "unit" m));
            Alcotest.(check bool) (name ^ " direction") true
              (s.better = Summary.better_of_string Json.(to_str (member "better" m))))
      Json.(to_list (member key b));
    Alcotest.(check (list string)) (key ^ " names")
      (List.map (fun (s : Spec.metric) -> s.name) specs)
      (names key)
  in
  metrics "end_to_end" Spec.end_to_end;
  metrics "per_layer" Spec.per_layer;
  let setup_bound, others =
    List.partition
      (fun m -> Json.(to_str (member "name" m)) = "setup_s")
      Json.(to_list (member "end_to_end" b))
  in
  let bound m = Json.(to_num (member "bound" m)) in
  List.iter
    (fun m ->
      Alcotest.(check bool) "setup_s has the largest bound" true
        (bound m <= bound (List.hd setup_bound)))
    others

let () =
  Alcotest.run "ledger"
    [ ( "tail",
        [ Alcotest.test_case "rank by sample count" `Quick tail;
          Alcotest.test_case "ten samples beyond" `Quick ten_beyond ] );
      ("pace", [ Alcotest.test_case "scaling to the local pace" `Quick pace ]);
      ( "order statistics",
        [ Alcotest.test_case "nearest-rank percentile" `Quick percentile;
          Alcotest.test_case "python quartiles" `Quick quartiles ] );
      ( "verdict",
        [ Alcotest.test_case "regressed/improved/unchanged/unresolved" `Quick verdict;
          Alcotest.test_case "failed ops compare exactly" `Quick failed ] );
      ("json", [ Alcotest.test_case "print and parse" `Quick json ]);
      ("benchmark", [ Alcotest.test_case "BENCHMARK.json matches the ledger" `Quick benchmark_json ]) ]
