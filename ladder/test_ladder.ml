(* Unit checks for the ladder's statistics: the nearest-rank boundary at
   which a p99 becomes reportable, quartiles that match Python's
   statistics.quantiles(data, n=4), capped samples, the peak-RSS
   reading, the yardstick, and diff's verdicts. *)

let fails = ref 0

let expect what ok =
  if not ok then begin
    incr fails;
    Printf.printf "FAIL: %s\n" what
  end

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let () =
  (* 1000 samples leave exactly 10 above rank 990: p99 is reportable;
     999 leave 9, so the honest tail falls back to p90. *)
  expect "N=1000 reports p99" (Pct.honest_tail (ramp 1000) = Some (99, 990.));
  expect "N=999 falls back to p90" (Pct.honest_tail (ramp 999) = Some (90, 900.));
  expect "N=100 reports p90" (Pct.honest_tail (ramp 100) = Some (90, 90.));
  expect "N=99 falls back to p50" (Pct.honest_tail (ramp 99) = Some (50, 50.));
  expect "N=19 supports no percentile" (Pct.honest_tail (ramp 19) = None);
  expect "nearest rank of a singleton" (Pct.nearest_rank [| 7. |] 99 = 7.);
  (* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
     statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0] *)
  expect "quartiles of 1..10" (Pct.quartiles (ramp 10) = [| 2.75; 5.5; 8.25 |]);
  expect "quartiles of a skewed five"
    (Pct.quartiles [| 16.; 1.; 8.; 2.; 4. |] = [| 1.5; 4.; 12. |]);
  expect "median of an even sample" (Pct.median [| 4.; 1.; 3.; 2. |] = 2.5);
  (* Capped samples keep an evenly spaced subset of the arrivals. *)
  let s = Load.Samples.create 8 in
  for i = 0 to 99 do
    Load.Samples.push s (float_of_int i)
  done;
  expect "capped samples are evenly spaced"
    (Load.Samples.to_array s = [| 0.; 16.; 32.; 48.; 64.; 80.; 96. |]);
  expect "getrusage reports a peak RSS" (Float.is_finite (Load.peak_rss_mb ()));
  (* The yardstick solves its chain and is due again only after every_s. *)
  let y = Yardstick.create ~n:6 ~every_s:1000. in
  let root_lhs = Yardstick.dp y in
  expect "the yardstick's root splits into two parts" (root_lhs > 0 && root_lhs < 63);
  expect "a fresh yardstick is due" (Yardstick.due y);
  ignore (Yardstick.time y);
  expect "a timed yardstick waits every_s" (not (Yardstick.due y));
  expect "the yardstick keeps its timing" (Array.length (Yardstick.times y) = 1);
  (* diff's verdicts: a relative bound, and setup_s's 20 ms floor. *)
  let spec sname = Some { Report.sname; lower_better = true; bound = Some 0.25 } in
  let runs x = Array.init 5 (fun i -> x *. (1. +. (0.01 *. float_of_int i))) in
  expect "2x slower is worse" (Diff.verdict (spec "p50_rel") (runs 0.010) (runs 0.020) = "worse");
  expect "10% slower is within" (Diff.verdict (spec "p50_rel") (runs 0.010) (runs 0.011) = "within");
  expect "2x slower set-up by 10 ms is within"
    (Diff.verdict (spec "setup_s") (runs 0.010) (runs 0.020) = "within");
  expect "2x slower set-up by 100 ms is worse"
    (Diff.verdict (spec "setup_s") (runs 0.100) (runs 0.200) = "worse");
  if !fails > 0 then exit 1;
  print_endline "ladder statistics: all checks passed"
