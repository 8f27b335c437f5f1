(* Tests for the utility substrate: rng, stats, linear fitting, tables. *)

module Rng = Blitz_util.Rng
module Stats = Blitz_util.Stats
module Linfit = Blitz_util.Linfit
module Float_more = Blitz_util.Float_more
module Ascii_table = Blitz_util.Ascii_table

let check_float = Test_helpers.check_float

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done;
  let c = Rng.create ~seed:43 in
  Alcotest.(check bool) "different seed, different stream" true (Rng.int64 a <> Rng.int64 c)

let test_rng_bounds () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 7);
    let f = Rng.float rng 3.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 3.5);
    let lu = Rng.log_uniform rng ~lo:2.0 ~hi:1000.0 in
    Alcotest.(check bool) "log_uniform in range" true (lu >= 2.0 && lu < 1000.0)
  done;
  Alcotest.check_raises "int bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_split_independence () =
  let parent = Rng.create ~seed:9 in
  let child = Rng.split parent in
  Alcotest.(check bool) "split streams differ" true (Rng.int64 parent <> Rng.int64 child)

let test_rng_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 10k draws, each bucket within
     3 sigma of 1000. *)
  let rng = Rng.create ~seed:123 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i count ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform (%d)" i count)
        true
        (abs (count - 1000) < 120))
    buckets

let test_shuffle_permutes () =
  let rng = Rng.create ~seed:5 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 20 (fun i -> i)) sorted

let test_stats () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "geomean" 10.0 (Stats.geometric_mean [| 1.0; 10.0; 100.0 |]);
  let lo, hi = Stats.min_max [| 3.0; 1.0; 2.0 |] in
  check_float "min" 1.0 lo;
  check_float "max" 3.0 hi;
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty input") (fun () ->
      ignore (Stats.mean [||]));
  Alcotest.check_raises "non-positive geomean"
    (Invalid_argument "Stats.geometric_mean: non-positive sample") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; 0.0 |]))

let test_float_more () =
  Alcotest.(check bool) "approx equal" true (Float_more.approx_equal 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "approx unequal" false (Float_more.approx_equal 1.0 1.1);
  Alcotest.(check bool) "inf equal" true (Float_more.approx_equal Float.infinity Float.infinity);
  Alcotest.(check bool) "nan unequal" false (Float_more.approx_equal Float.nan Float.nan);
  check_float "pow_int" 1024.0 (Float_more.pow_int 2.0 10);
  check_float "pow_int zero" 1.0 (Float_more.pow_int 5.0 0);
  Alcotest.(check string) "compact int" "240000" (Float_more.to_compact_string 240000.0);
  Alcotest.(check string) "compact inf" "inf" (Float_more.to_compact_string Float.infinity)

let test_linfit_exact () =
  (* y = 3x + 5 recovered exactly from 4 points. *)
  let basis = [| (fun x -> x); (fun _ -> 1.0) |] in
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = Array.map (fun x -> (3.0 *. x) +. 5.0) xs in
  let c = Linfit.fit ~basis ~xs ~ys () in
  check_float ~rel:1e-9 "slope" 3.0 c.(0);
  check_float ~rel:1e-9 "intercept" 5.0 c.(1)

let test_linfit_formula3_roundtrip () =
  (* Synthesize timings from known constants; the fit must recover them. *)
  let t_loop = 5e-9 and t_cond = 2e-8 and t_subset = 4e-8 in
  let ns = Array.init 10 (fun i -> i + 4) in
  let times = Array.map (fun n -> Linfit.eval_formula3 ~t_loop ~t_cond ~t_subset n) ns in
  let fl, fc, fs = Linfit.fit_formula3 ~ns ~times in
  check_float ~rel:1e-6 "t_loop" t_loop fl;
  check_float ~rel:1e-6 "t_cond" t_cond fc;
  check_float ~rel:1e-6 "t_subset" t_subset fs;
  let predicted = Array.map (fun n -> Linfit.eval_formula3 ~t_loop:fl ~t_cond:fc ~t_subset:fs n) ns in
  check_float ~rel:1e-9 "r^2" 1.0 (Linfit.r_squared ~predicted ~observed:times)

let test_linfit_singular () =
  Alcotest.check_raises "singular" (Failure "Linfit.solve: singular matrix") (fun () ->
      ignore (Linfit.solve [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |] |] [| 1.0; 2.0 |]))

let test_ascii_table () =
  let rendered =
    Ascii_table.render ~header:[| "name"; "value" |] [| [| "a"; "1" |]; [| "bbb"; "22" |] |]
  in
  Alcotest.(check bool) "has separator" true (String.length rendered > 0);
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "line count" 5 (List.length lines);
  (* all non-empty lines equal width *)
  let widths = List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines in
  List.iter (fun w -> Alcotest.(check int) "aligned" (List.hd widths) w) widths;
  Alcotest.check_raises "ragged row rejected"
    (Invalid_argument "Ascii_table.render: row 0 has 1 cells, expected 2") (fun () ->
      ignore (Ascii_table.render ~header:[| "a"; "b" |] [| [| "x" |] |]))

let test_spearman () =
  let x = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "perfect agreement" 1.0 (Stats.spearman x [| 10.0; 20.0; 30.0; 40.0; 50.0 |]);
  check_float "perfect reversal" (-1.0) (Stats.spearman x [| 5.0; 4.0; 3.0; 2.0; 1.0 |]);
  (* Monotone but non-linear still ranks perfectly. *)
  check_float "monotone nonlinear" 1.0 (Stats.spearman x (Array.map (fun v -> exp v) x));
  (* Ties get average ranks; a constant column correlates at 0. *)
  check_float "constant column" 0.0 (Stats.spearman x [| 7.0; 7.0; 7.0; 7.0; 7.0 |]);
  Alcotest.check_raises "length mismatch" (Invalid_argument "Stats.spearman: length mismatch")
    (fun () -> ignore (Stats.spearman x [| 1.0 |]))

let prop_spearman_bounded =
  QCheck2.Test.make ~count:300 ~name:"spearman stays in [-1, 1]"
    QCheck2.Gen.(
      pair (array_size (int_range 2 20) (float_range (-100.0) 100.0))
        (array_size (int_range 2 20) (float_range (-100.0) 100.0)))
    (fun (x, y) ->
      let n = min (Array.length x) (Array.length y) in
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      let r = Stats.spearman x y in
      r >= -1.0 -. 1e-9 && r <= 1.0 +. 1e-9)

let prop_log_uniform_in_range =
  QCheck2.Test.make ~count:300 ~name:"log_uniform stays in range"
    QCheck2.Gen.(pair (int_bound 10000) (pair (float_range 0.001 10.0) (float_range 11.0 1e6)))
    (fun (seed, (lo, hi)) ->
      let rng = Rng.create ~seed in
      let v = Rng.log_uniform rng ~lo ~hi in
      v >= lo && v < hi)

let prop_geomean_between_min_max =
  QCheck2.Test.make ~count:300 ~name:"geometric mean lies between min and max"
    QCheck2.Gen.(array_size (int_range 1 20) (float_range 0.1 1e6))
    (fun a ->
      let g = Stats.geometric_mean a in
      let lo, hi = Stats.min_max a in
      g >= lo *. (1.0 -. 1e-9) && g <= hi *. (1.0 +. 1e-9))

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independence;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "float helpers" `Quick test_float_more;
    Alcotest.test_case "linfit recovers a line" `Quick test_linfit_exact;
    Alcotest.test_case "Formula (3) fit round-trips" `Quick test_linfit_formula3_roundtrip;
    Alcotest.test_case "linfit rejects singular systems" `Quick test_linfit_singular;
    Alcotest.test_case "ascii table" `Quick test_ascii_table;
    Alcotest.test_case "spearman rank correlation" `Quick test_spearman;
    QCheck_alcotest.to_alcotest prop_spearman_bounded;
    QCheck_alcotest.to_alcotest prop_log_uniform_in_range;
    QCheck_alcotest.to_alcotest prop_geomean_between_min_max;
  ]
