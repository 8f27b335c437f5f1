(* The DP-inside-randomized-search hybrid (the paper's Section 7 future
   work). *)

open Test_helpers
module Hybrid = Blitz_hybrid.Hybrid
module Blitzsplit = Blitz_core.Blitzsplit
module B = Blitz_baselines

let fig3 = figure3_graph ~sab:0.1 ~sac:0.2 ~sbc:0.3 ~sad:0.4

let test_small_instances_reach_optimum () =
  (* With window >= n the first descent re-optimizes the whole plan
     exactly, so the hybrid must equal blitzsplit. *)
  let rng = Rng.create ~seed:11 in
  let (plan, cost), stats =
    Hybrid.optimize ~rng ~window:4 ~kicks:0 Cost_model.kdnl abcd_catalog fig3
  in
  let optimum = Blitzsplit.best_cost (Blitzsplit.optimize_join Cost_model.kdnl abcd_catalog fig3) in
  Test_helpers.check_float ~rel:1e-9 "optimal" optimum cost;
  Alcotest.(check bool) "valid plan" true (Result.is_ok (Plan.validate ~n:4 plan));
  Alcotest.(check bool) "did some window work" true (stats.Hybrid.windows_reoptimized > 0)

let test_stats_accounting () =
  let rng = Rng.create ~seed:3 in
  let _, stats = Hybrid.optimize ~rng ~window:3 ~kicks:5 Cost_model.naive abcd_catalog fig3 in
  Alcotest.(check int) "kicks run" 5 stats.Hybrid.kicks;
  Alcotest.(check bool) "improvements <= reopts" true
    (stats.Hybrid.windows_improved <= stats.Hybrid.windows_reoptimized)

let test_invalid_arguments () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "window too small"
    (Invalid_argument "Hybrid.optimize: window must be at least 2") (fun () ->
      ignore (Hybrid.optimize ~rng ~window:1 Cost_model.naive abcd_catalog fig3));
  let bad_start = Plan.Leaf 0 in
  Alcotest.check_raises "partial start plan"
    (Invalid_argument "Hybrid.optimize: start plan must cover all catalog relations") (fun () ->
      ignore (Hybrid.optimize ~rng ~start:bad_start Cost_model.naive abcd_catalog fig3))

let prop_hybrid_sound =
  QCheck2.Test.make ~count:40 ~name:"hybrid returns valid plans never better than optimal"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let rng = Rng.create ~seed:(p.seed + 23) in
      let (plan, cost), _ = Hybrid.optimize ~rng ~window:4 ~kicks:6 p.model p.catalog p.graph in
      let optimum = Blitzsplit.best_cost (Blitzsplit.optimize_join p.model p.catalog p.graph) in
      let n = Catalog.n p.catalog in
      Relset.equal (Plan.relations plan) (Relset.full n)
      && cost >= optimum *. (1.0 -. 1e-6)
      && Blitz_util.Float_more.approx_equal ~rel:1e-6 cost
           (Plan.cost p.model p.catalog p.graph plan))

let prop_cost_is_reference_cost =
  (* The hybrid prices every plan with [Plan.cost], so the cost it
     reports is that of the plan it returns, to the bit. *)
  QCheck2.Test.make ~count:60 ~name:"hybrid's cost is Plan.cost of its plan, bit for bit"
    ~print:problem_print (problem_gen ~max_n:10)
    (fun p ->
      let rng = Rng.create ~seed:(p.seed + 53) in
      let (plan, cost), _ = Hybrid.optimize ~rng ~kicks:4 p.model p.catalog p.graph in
      Int64.equal (Int64.bits_of_float cost)
        (Int64.bits_of_float (Plan.cost p.model p.catalog p.graph plan)))

let prop_hybrid_never_worse_than_greedy =
  QCheck2.Test.make ~count:30 ~name:"hybrid never ends worse than its greedy start"
    ~print:problem_print (problem_gen ~max_n:9)
    (fun p ->
      let rng = Rng.create ~seed:(p.seed + 31) in
      let (_, cost), _ = Hybrid.optimize ~rng ~kicks:4 p.model p.catalog p.graph in
      let _, greedy_cost = B.Greedy.optimize p.model p.catalog p.graph in
      cost <= greedy_cost *. (1.0 +. 1e-9))

let prop_window_reopt_is_monotone =
  (* Each accepted window re-optimization lowers cost, so the final cost
     never exceeds the start plan's cost, whatever the start. *)
  QCheck2.Test.make ~count:40 ~name:"hybrid never ends worse than an arbitrary start plan"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let n = Catalog.n p.catalog in
      let rng = Rng.create ~seed:(p.seed + 41) in
      let start = B.Transform.random_bushy rng (Relset.full n) in
      let start_cost = Plan.cost p.model p.catalog p.graph start in
      let (_, cost), _ = Hybrid.optimize ~rng ~start ~kicks:3 p.model p.catalog p.graph in
      cost <= start_cost *. (1.0 +. 1e-9))

let suite =
  [
    Alcotest.test_case "full-window hybrid is exact" `Quick test_small_instances_reach_optimum;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "argument validation" `Quick test_invalid_arguments;
    QCheck_alcotest.to_alcotest prop_hybrid_sound;
    QCheck_alcotest.to_alcotest prop_cost_is_reference_cost;
    QCheck_alcotest.to_alcotest prop_hybrid_never_worse_than_greedy;
    QCheck_alcotest.to_alcotest prop_window_reopt_is_monotone;
  ]
