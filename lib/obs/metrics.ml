(* Fixed log-spaced bucket upper bounds ({1,2,5} per decade from 1e-9
   to 5e11, with a 0 bucket below and an overflow bucket above). The
   grid is static so quantile estimates are deterministic, memory per
   histogram is bounded, and the Prometheus exposition can reuse the
   same cumulative counts. *)
let bucket_bounds =
  let acc = ref [ 0.0 ] in
  for e = -9 to 11 do
    List.iter
      (fun m -> acc := (m *. (10.0 ** float_of_int e)) :: !acc)
      [ 1.0; 2.0; 5.0 ]
  done;
  Array.of_list (List.sort compare !acc)

let bucket_count = Array.length bucket_bounds + 1 (* + overflow *)

(* First bucket whose upper bound is >= v (overflow past the grid). *)
let bucket_index v =
  let n = Array.length bucket_bounds in
  if v > bucket_bounds.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= bucket_bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

type histo = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_last : float;
  h_buckets : int array;
}

type metric = M_counter of int ref | M_gauge of float ref | M_histo of histo

type stat =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : float;
      min : float;
      max : float;
      last : float;
      p50 : float;
      p95 : float;
      p99 : float;
      buckets : (float * int) list;
    }

let table : (string, metric) Hashtbl.t = Hashtbl.create 64
let live = ref false
let on () = !live
let enable () = live := true
let disable () = live := false
let reset () = Hashtbl.reset table

let kind_error name =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %s is already bound to another kind" name)

(* Lookup-or-create under a fixed kind; the double branch keeps the
   common path (name already bound, right kind) allocation-free. *)
let direct_incr by name =
  match Hashtbl.find_opt table name with
  | Some (M_counter c) -> c := !c + by
  | Some _ -> kind_error name
  | None -> Hashtbl.add table name (M_counter (ref by))

let direct_gauge name v =
  match Hashtbl.find_opt table name with
  | Some (M_gauge g) -> g := v
  | Some _ -> kind_error name
  | None -> Hashtbl.add table name (M_gauge (ref v))

let direct_observe name v =
  match Hashtbl.find_opt table name with
  | Some (M_histo h) ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      h.h_last <- v;
      let i = bucket_index v in
      h.h_buckets.(i) <- h.h_buckets.(i) + 1
  | Some _ -> kind_error name
  | None ->
      let h =
        { h_count = 1;
          h_sum = v;
          h_min = v;
          h_max = v;
          h_last = v;
          h_buckets = Array.make bucket_count 0 }
      in
      h.h_buckets.(bucket_index v) <- 1;
      Hashtbl.add table name (M_histo h)

(* The live flag is tested before the domain-local lookup, so a site
   without its own guard costs one load while metrics are off. Inside a
   pool task the write itself is buffered and replayed at the merge, in
   task order, so float sums accumulate in the inline run's order. *)
let incr ?(by = 1) name =
  if !live then
    match Sink.installed () with
    | Some b -> Sink.push b (fun () -> direct_incr by name)
    | None -> direct_incr by name

let gauge name v =
  if !live then
    match Sink.installed () with
    | Some b -> Sink.push b (fun () -> direct_gauge name v)
    | None -> direct_gauge name v

let observe name v =
  if !live then
    match Sink.installed () with
    | Some b -> Sink.push b (fun () -> direct_observe name v)
    | None -> direct_observe name v

let counter name =
  match Hashtbl.find_opt table name with
  | Some (M_counter c) -> !c
  | Some _ | None -> 0

let last name =
  match Hashtbl.find_opt table name with
  | Some (M_histo h) -> Some h.h_last
  | Some (M_gauge g) -> Some !g
  | Some (M_counter _) | None -> None

(* Linear interpolation inside the bucket where the cumulative count
   crosses q·n, clamped to the observed [min, max]. Deterministic
   (same samples, any order → same estimate); exact when the samples
   are evenly spread across the crossing bucket. *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let target = q *. float_of_int h.h_count in
    let n = Array.length h.h_buckets in
    let rec walk i cum =
      if i >= n then h.h_max
      else
        let c = h.h_buckets.(i) in
        let cum' = cum + c in
        if c > 0 && float_of_int cum' >= target then begin
          let lo = if i = 0 then h.h_min else bucket_bounds.(i - 1) in
          let hi =
            if i >= Array.length bucket_bounds then h.h_max
            else bucket_bounds.(i)
          in
          let lo = Float.max lo h.h_min and hi = Float.min hi h.h_max in
          let est =
            lo +. ((hi -. lo) *. ((target -. float_of_int cum) /. float_of_int c))
          in
          Float.max h.h_min (Float.min h.h_max est)
        end
        else walk (i + 1) cum'
    in
    walk 0 0
  end

(* Cumulative (bound, count <= bound) pairs, one per grid bound plus
   the +infinity overflow — the shape Prometheus histograms expect. *)
let cumulative_buckets h =
  let cum = ref 0 in
  let grid =
    List.init (Array.length bucket_bounds) (fun i ->
        cum := !cum + h.h_buckets.(i);
        (bucket_bounds.(i), !cum))
  in
  grid @ [ (Float.infinity, h.h_count) ]

let stat_of = function
  | M_counter c -> Counter !c
  | M_gauge g -> Gauge !g
  | M_histo h ->
      Histogram
        { count = h.h_count;
          sum = h.h_sum;
          min = h.h_min;
          max = h.h_max;
          last = h.h_last;
          p50 = quantile h 0.50;
          p95 = quantile h 0.95;
          p99 = quantile h 0.99;
          buckets = cumulative_buckets h }

let snapshot () =
  Hashtbl.fold (fun name m acc -> (name, stat_of m) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let with_prefix prefix =
  let n = String.length prefix in
  Hashtbl.fold
    (fun name m acc ->
      if String.length name >= n && String.sub name 0 n = prefix then
        (name, stat_of m) :: acc
      else acc)
    table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
