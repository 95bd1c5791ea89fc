(* Order statistics and the regression verdict. Pure, so the unit tests
   pin down exactly which sample a reported percentile is. *)

(* Nearest rank: the smallest sample with at least p‰ of the samples at
   or below it. Per-mille keeps the rank arithmetic in integers. *)
let percentile sorted ~permille =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.percentile: no samples";
  sorted.(max 1 (((permille * n) + 999) / 1000) - 1)

(* The highest percentile with at least ten samples above it is the
   11th-largest sample, percentile (n - 10) / n. Taking it exactly,
   rather than the nearest of a few fixed percentiles, keeps the metric
   from jumping between percentiles when the op count drifts across a
   threshold. Below 20 samples it would fall under the median, and the
   maximum stands in. *)
let tail_rank n = if n >= 20 then n - 10 else n

let tail sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.tail: no samples";
  sorted.(tail_rank n - 1)

let tail_percent n = 100.0 *. float_of_int (tail_rank n) /. float_of_int n

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The middle run, or the mean of the two middle runs — Python's
   statistics.median. *)
let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(xs, n=4) with the default exclusive
   method, so ledger quartiles match the ones the benchmark contract is
   checked with. Needs two or more samples. *)
let quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Summary.quartiles: need two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Other tenants of a shared machine slow everything for seconds to
   minutes at a time. A run therefore times a fixed reference task
   every so often ([samples]: start time in s, duration in ms), and a
   timing that started at [t] and took [ms] is scaled by [reference]
   over the median reference time within [pace_window] seconds of its
   midpoint, or over the nearest one when none is that close. Every op
   counts; a slowdown of the program itself leaves the reference task
   alone and stays in the result. *)
let pace_window = 1.0

let local_pace samples t =
  match List.filter (fun (s, _) -> Float.abs (s -. t) <= pace_window) samples with
  | [] ->
      let nearest (s, p) (s', p') = if Float.abs (s' -. t) < Float.abs (s -. t) then (s', p') else (s, p) in
      (match samples with
      | [] -> invalid_arg "Summary.local_pace: no samples"
      | x :: rest -> snd (List.fold_left nearest x rest))
  | near -> median (List.map snd near)

let at_pace ~reference samples (t, ms) = ms *. reference /. local_pace samples (t +. (ms /. 2e3))

(* Interquartile distance as a share of the median; 0 for fewer than
   two runs, where there is no spread to measure. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let q1, q2, q3 = quartiles xs in
      if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg ("better must be lower or higher, not " ^ s)

type verdict = Regressed | Improved | Unchanged | Unresolved

let verdict_to_string = function
  | Regressed -> "regressed"
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* Relative change of [b] against [a] in the good direction: positive
   means [b] is better. *)
let gain better a b =
  let d = (b -. a) /. Float.abs a in
  match better with Lower -> -.d | Higher -> d

(* Within the bound: unchanged. Beyond it: regressed or improved. When
   either side's own quartile spread is wider than the bound the runs
   cannot tell, so the verdict is unresolved — unless every new run
   beats every old one. *)
let verdict ~better ~bound ~old_runs ~new_runs =
  let beats x y = gain better y x > 0.0 in
  let all_better =
    List.for_all (fun n -> List.for_all (fun o -> beats n o) old_runs) new_runs
  in
  if old_runs = [] || new_runs = [] then Unresolved
  else if spread old_runs > bound || spread new_runs > bound then
    if all_better then Improved else Unresolved
  else
    let g = gain better (median old_runs) (median new_runs) in
    if g < -.bound then Regressed else if g > bound then Improved else Unchanged

(* Failed ops over attempted ops, compared exactly: any rise is a
   regression, whatever the timings say, since an op that fails fast
   would otherwise read as a speed-up. *)
let failed_verdict ~old_counts:(old_failed, old_attempted) ~new_counts:(new_failed, new_attempted) =
  let c = compare (new_failed * max 1 old_attempted) (old_failed * max 1 new_attempted) in
  if c > 0 then Regressed else if c < 0 then Improved else Unchanged
