(* Streaming integration: observations arrive over time instead of as a
   one-shot merge.

   A monitoring station keeps an evidential store of network hosts. Each
   "day", a batch of scanner observations arrives and is absorbed with
   Integration.Multi.absorb_delta, which visits only the batch's keys;
   the example tracks how the store's evidence sharpens, logs the one
   poisoned observation as a conflict, and diffs consecutive versions
   with Erm.Delta so an operator can review what a day's intake
   actually changed. *)

let status = Dst.Domain.of_strings "status" [ "up"; "degraded"; "down" ]
let role = Dst.Domain.of_strings "role" [ "web"; "db"; "cache" ]

let schema =
  Erm.Schema.make ~name:"hosts"
    ~key:[ Erm.Attr.definite "host" "string" ]
    ~nonkey:
      [ Erm.Attr.evidential "status" status;
        Erm.Attr.evidential "role" role ]

let obs ?(tm = Dst.Support.make ~sn:0.8 ~sp:1.0) host status_ev role_ev =
  Erm.Etuple.make schema
    ~key:[ Dst.Value.string host ]
    ~cells:
      [ Erm.Etuple.Evidence (Dst.Evidence.of_string status status_ev);
        Erm.Etuple.Evidence (Dst.Evidence.of_string role role_ev) ]
    ~tm

(* Day 1: first sighting of three hosts — everything is hazy. *)
let day1 =
  [ obs "alpha" "[up^0.6; ~^0.4]" "[web^0.5; {web,cache}^0.3; ~^0.2]";
    obs "bravo" "[up^0.5; degraded^0.3; ~^0.2]" "[db^0.7; {db,cache}^0.3]";
    obs "carol" "[~^1]" "[cache^0.4; ~^0.6]" ]

(* Day 2: corroborating scans sharpen the picture; a new host appears. *)
let day2 =
  [ obs "alpha" "[up^0.8; ~^0.2]" "[web^0.7; ~^0.3]";
    obs "bravo" "[up^0.7; ~^0.3]" "[db^0.9; {db,cache}^0.1]";
    obs "delta" "[up^0.9; ~^0.1]" "[cache^1]" ]

(* Day 3: one sensor insists bravo is a web host with certainty — in
   total conflict with the accumulated db-or-cache evidence (κ = 1).
   The merge drops bravo and logs the conflict, exactly as a batch
   integration of all three days would, rather than store a tuple it
   cannot justify. Had the stored evidence kept even a sliver of Ω,
   Dempster's rule would instead have flipped the whole mass onto
   "web" — Zadeh's classic overconfidence paradox; the discounted
   re-run below shows the robust way to take such a sensor in. *)
let day3 =
  [ obs "bravo" "[up^0.9; ~^0.1]" "[web^1]";
    obs "carol" "[degraded^0.6; ~^0.4]" "[cache^0.8; ~^0.2]" ]

let day3_role_fixed =
  (* The same intake after the operator discounts the suspect sensor. *)
  [ obs "bravo" "[up^0.9; ~^0.1]" "[web^0.6; ~^0.4]";
    obs "carol" "[degraded^0.6; ~^0.4]" "[cache^0.8; ~^0.2]" ]

(* One day's intake: the batch is one more source absorbed into the
   store, in O(batch) rather than by re-integrating every day. *)
let absorb day store batch =
  Integration.Multi.absorb_delta ~into:store
    { Integration.Multi.source_name = Printf.sprintf "day%d" day;
      source_relation = Erm.Relation.of_tuples schema batch }

let show day (store, conflicts, _) =
  Printf.printf "\n== after day %d ==\n" day;
  Printf.printf "store of %d tuples (%d conflict(s) absorbing day %d)\n"
    (Erm.Relation.cardinal store)
    (List.length conflicts) day;
  Erm.Render.print ~title:"store" store

let () =
  let ((store1, _, _) as day1_result) =
    absorb 1 (Erm.Relation.empty schema) day1
  in
  show 1 day1_result;

  let ((store2, _, _) as day2_result) = absorb 2 store1 day2 in
  show 2 day2_result;
  print_endline "what day 2 changed:";
  Format.printf "%a@." Erm.Delta.pp (Erm.Delta.diff store1 store2);

  let ((_, conflicts3, _) as day3_result) = absorb 3 store2 day3 in
  show 3 day3_result;
  print_endline "conflict log:";
  List.iter (fun c -> Format.printf "  %a@." Erm.Ops.pp_conflict c) conflicts3;
  print_endline
    "(bravo is dropped: a totally conflicting pair is reported, not\n\
    \ merged, and the store no longer vouches for it)";

  (* Re-running the day with the suspect sensor softened absorbs fine. *)
  let store3', _, _ = absorb 3 store2 day3_role_fixed in
  print_endline "\nthe same intake with the suspect sensor discounted:";
  Format.printf "%a@." Erm.Delta.pp (Erm.Delta.diff store2 store3');

  (* Operational queries over the live store. *)
  let env = [ ("hosts", store3') ] in
  print_endline "\n> hosts that are likely up (SN > 0.6):";
  Erm.Render.print
    (Query.Eval.run env
       "SELECT host, status FROM hosts WHERE status IS {up} WITH SN > 0.6");
  print_endline "> most certain db host:";
  Erm.Render.print
    (Query.Eval.run env
       "SELECT host, role FROM hosts WHERE role IS {db} ORDER BY SN DESC \
        LIMIT 1")
