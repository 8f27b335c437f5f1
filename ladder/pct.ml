(* Percentiles that say how much sample they rest on.

   Nearest rank: the p-th percentile of N sorted samples is the one at
   1-based rank ceil(p N / 100), computed in integers so that p = 99,
   N = 1000 lands on rank 990 exactly.  A percentile is only reported
   when at least [min_beyond] samples rank above it; otherwise it is the
   maximum of a handful of samples dressed up as a tail. *)

let min_beyond = 10

let rank ~n p = max 1 (((p * n) + 99) / 100)

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.nearest_rank: empty sample";
  sorted.(rank ~n p - 1)

let supported ~n p = n > 0 && n - rank ~n p >= min_beyond

(* The highest of p99/p90/p50 the sample supports, as (percentile,
   value). *)
let honest_tail sorted =
  let n = Array.length sorted in
  List.find_map
    (fun p -> if supported ~n p then Some (p, nearest_rank sorted p) else None)
    [ 99; 90; 50 ]

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then nan
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Quartiles exactly as Python's statistics.quantiles(data, n=4) gives
   them (its default "exclusive" method), so spreads printed here match
   the ones computed by tools that read the same result files. *)
let quartiles a =
  let s = sorted_copy a in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Pct.quartiles: need at least two samples";
  let m = ld + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = min (ld - 1) (max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.)

(* Interquartile distance as a share of the median. *)
let rel_spread a =
  let q = quartiles a in
  (q.(2) -. q.(0)) /. Float.abs q.(1)
