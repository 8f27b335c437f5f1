(* Baseline optimizers: each is validated against its own oracle, and the
   paper's qualitative claims (search-space containment) are checked. *)

open Test_helpers
module B = Blitz_baselines
module Blitzsplit = Blitz_core.Blitzsplit

let fig3 = figure3_graph ~sab:0.1 ~sac:0.2 ~sbc:0.3 ~sad:0.4
let check_float = Test_helpers.check_float

(* ---- Eval ---- *)

let test_eval_matches_reference_costing () =
  let eval = B.Eval.make Cost_model.kdnl abcd_catalog fig3 in
  let plan = Plan.(Join (Join (Leaf 0, Leaf 3), Join (Leaf 1, Leaf 2))) in
  check_float ~rel:1e-9 "eval = Plan.cost"
    (Plan.cost Cost_model.kdnl abcd_catalog fig3 plan)
    (B.Eval.cost eval plan);
  Alcotest.check_raises "shared relation rejected"
    (Invalid_argument "Eval.cost: operands share a relation") (fun () ->
      ignore (B.Eval.cost eval Plan.(Join (Leaf 0, Join (Leaf 0, Leaf 1)))))

(* ---- Left-deep DP ---- *)

let test_leftdeep_vs_permutation_oracle () =
  let r = B.Leftdeep.optimize Cost_model.kdnl abcd_catalog fig3 in
  let _, oracle = B.Bruteforce.optimize_leftdeep Cost_model.kdnl abcd_catalog fig3 in
  check_float ~rel:1e-9 "left-deep DP = permutation oracle" oracle r.B.Leftdeep.cost;
  match r.B.Leftdeep.plan with
  | None -> Alcotest.fail "no plan"
  | Some p -> Alcotest.(check bool) "plan is left-deep" true (Plan.is_left_deep p)

let test_leftdeep_policies () =
  (* Disconnected graph: {A-B} and {C-D} components. *)
  let catalog = Catalog.of_cards [| 10.0; 20.0; 30.0; 40.0 |] in
  let graph = Join_graph.of_edges ~n:4 [ (0, 1, 0.1); (2, 3, 0.2) ] in
  let allowed = B.Leftdeep.optimize ~policy:B.Leftdeep.Allowed Cost_model.naive catalog graph in
  let deferred = B.Leftdeep.optimize ~policy:B.Leftdeep.Deferred Cost_model.naive catalog graph in
  let forbidden = B.Leftdeep.optimize ~policy:B.Leftdeep.Forbidden Cost_model.naive catalog graph in
  Alcotest.(check bool) "allowed feasible" true (allowed.B.Leftdeep.plan <> None);
  Alcotest.(check bool) "deferred feasible" true (deferred.B.Leftdeep.plan <> None);
  Alcotest.(check bool) "forbidden infeasible on disconnected graph" true
    (forbidden.B.Leftdeep.plan = None);
  Alcotest.(check bool) "allowed <= deferred" true
    (allowed.B.Leftdeep.cost <= deferred.B.Leftdeep.cost +. 1e-9);
  (* A connected graph: all three agree with each other only when products
     never help; at minimum Forbidden must be feasible. *)
  let connected = B.Leftdeep.optimize ~policy:B.Leftdeep.Forbidden Cost_model.naive catalog fig3 in
  Alcotest.(check bool) "forbidden feasible on connected graph" true
    (connected.B.Leftdeep.plan <> None)

(* ---- DPsize ---- *)

let test_dpsize_matches_blitzsplit () =
  let r = B.Dpsize.optimize Cost_model.kdnl abcd_catalog fig3 in
  let bs = Blitzsplit.optimize_join Cost_model.kdnl abcd_catalog fig3 in
  check_float ~rel:1e-9 "same optimum" (Blitzsplit.best_cost bs) r.B.Dpsize.cost

let test_dpsize_no_products_on_disconnected_graph () =
  let catalog = Catalog.of_cards [| 10.0; 20.0; 30.0 |] in
  let graph = Join_graph.of_edges ~n:3 [ (0, 1, 0.1) ] in
  let r = B.Dpsize.optimize ~cartesian:false Cost_model.naive catalog graph in
  Alcotest.(check bool) "infeasible" true (r.B.Dpsize.plan = None);
  let with_products = B.Dpsize.optimize ~cartesian:true Cost_model.naive catalog graph in
  Alcotest.(check bool) "feasible with products" true (with_products.B.Dpsize.plan <> None)

let test_dpsize_enumerator_overhead () =
  (* Section 2: the size-driven enumerator considers far more pairs than
     it builds joins — the O(4^n)-vs-O(3^n) gap. *)
  let n = 10 in
  let catalog = Catalog.uniform ~n ~card:100.0 in
  let graph = Join_graph.no_predicates ~n in
  let r = B.Dpsize.optimize Cost_model.naive catalog graph in
  Alcotest.(check bool) "pairs considered > joins built" true
    (r.B.Dpsize.pairs_considered > r.B.Dpsize.joins_built);
  (* joins_built counts each unordered split once, as blitzsplit's split
     loop does: (3^n - 2^(n+1) + 1) / 2. *)
  Alcotest.(check int) "joins built = unordered splits"
    (Blitz_core.Counters.exact_loop_iters n)
    r.B.Dpsize.joins_built

(* ---- Greedy ---- *)

let test_greedy_validity () =
  List.iter
    (fun strategy ->
      let plan, cost = B.Greedy.optimize ~strategy Cost_model.kdnl abcd_catalog fig3 in
      Alcotest.(check bool) "valid" true (Result.is_ok (Plan.validate ~n:4 plan));
      Alcotest.(check int) "covers all" 0b1111 (Plan.relations plan);
      check_float ~rel:1e-9 "reported cost is the plan's cost"
        (Plan.cost Cost_model.kdnl abcd_catalog fig3 plan)
        cost)
    [ B.Greedy.Min_result_card; B.Greedy.Min_cost_increase ]

(* ---- Transformations ---- *)

let test_transform_rules () =
  let p = Plan.(Join (Join (Leaf 0, Leaf 1), Leaf 2)) in
  let show q = Plan.to_compact_string q in
  let apply rule = Option.map show (B.Transform.apply_root rule p) in
  Alcotest.(check (option string)) "commute" (Some "(R2 x (R0 x R1))") (apply B.Transform.Commute);
  Alcotest.(check (option string)) "assoc-left" (Some "(R0 x (R1 x R2))")
    (apply B.Transform.Assoc_left);
  Alcotest.(check (option string)) "exchange-left" (Some "((R0 x R2) x R1)")
    (apply B.Transform.Exchange_left);
  Alcotest.(check (option string)) "assoc-right inapplicable" None (apply B.Transform.Assoc_right);
  Alcotest.(check (option string)) "exchange-right inapplicable" None
    (apply B.Transform.Exchange_right);
  (* apply_at into the left child *)
  let deep = Plan.(Join (Join (Leaf 0, Leaf 1), Leaf 2)) in
  match B.Transform.apply_at deep ~path:[ 0 ] B.Transform.Commute with
  | Some q -> Alcotest.(check string) "nested commute" "((R1 x R0) x R2)" (show q)
  | None -> Alcotest.fail "expected applicability"

let test_internal_paths_and_neighbors () =
  let p = Plan.(Join (Join (Leaf 0, Leaf 1), Join (Leaf 2, Leaf 3))) in
  Alcotest.(check int) "3 internal nodes" 3 (List.length (B.Transform.internal_paths p));
  let neighbors = B.Transform.neighbors p in
  Alcotest.(check bool) "has neighbors" true (List.length neighbors > 5);
  List.iter
    (fun q ->
      Alcotest.(check bool) "neighbor valid" true (Result.is_ok (Plan.validate ~n:4 q));
      Alcotest.(check int) "neighbor covers all" 0b1111 (Plan.relations q))
    neighbors

let prop_random_neighbor_preserves_leaves =
  QCheck2.Test.make ~count:300 ~name:"random transformation moves preserve the leaf set"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 3 + Rng.int rng 8 in
      let full = Relset.full n in
      let plan = ref (B.Transform.random_bushy rng full) in
      let ok = ref true in
      for _ = 1 to 30 do
        plan := B.Transform.random_neighbor rng !plan;
        if not (Relset.equal (Plan.relations !plan) full) then ok := false
      done;
      !ok)

let prop_moves_can_reach_all_shapes =
  (* With enough random moves from a vine, bushy shapes appear: the rule
     set is not trapped in left-deep space. *)
  QCheck2.Test.make ~count:50 ~name:"transformation moves escape left-deep space"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let full = Relset.full 6 in
      let plan = ref (B.Transform.random_leftdeep rng full) in
      let saw_bushy = ref false in
      for _ = 1 to 200 do
        plan := B.Transform.random_neighbor rng !plan;
        if not (Plan.is_left_deep !plan) then saw_bushy := true
      done;
      !saw_bushy)

(* ---- Stochastic optimizers ---- *)

let prop_stochastic_sound_and_bounded =
  QCheck2.Test.make ~count:40 ~name:"II / SA / probe return valid plans no better than optimal"
    ~print:problem_print (problem_gen ~max_n:7)
    (fun p ->
      let optimum = Blitzsplit.best_cost (Blitzsplit.optimize_join p.model p.catalog p.graph) in
      let n = Catalog.n p.catalog in
      let full = Relset.full n in
      let check_result name (plan, cost) =
        if not (Relset.equal (Plan.relations plan) full) then
          QCheck2.Test.fail_reportf "%s: plan does not cover all relations" name;
        if cost < optimum *. (1.0 -. 1e-6) then
          QCheck2.Test.fail_reportf "%s: cost %.9g beats optimum %.9g" name cost optimum;
        let reference = Plan.cost p.model p.catalog p.graph plan in
        if not (Blitz_util.Float_more.approx_equal ~rel:1e-6 reference cost) then
          QCheck2.Test.fail_reportf "%s: reported %.9g but plan costs %.9g" name cost reference
      in
      let rng = Rng.create ~seed:(p.seed + 7) in
      let ii, _ = B.Iterative_improvement.optimize ~rng ~restarts:3 p.model p.catalog p.graph in
      check_result "II" ii;
      let sa, _ = B.Simulated_annealing.optimize ~rng p.model p.catalog p.graph in
      check_result "SA" sa;
      check_result "probe" (B.Random_probe.optimize ~rng ~samples:50 p.model p.catalog p.graph);
      check_result "greedy" (B.Greedy.optimize p.model p.catalog p.graph);
      true)

let test_stochastic_determinism () =
  let run seed =
    let rng = Rng.create ~seed in
    let (p, c), _ = B.Iterative_improvement.optimize ~rng ~restarts:4 Cost_model.kdnl abcd_catalog fig3 in
    (Plan.to_compact_string p, c)
  in
  Alcotest.(check bool) "same seed, same result" true (run 5 = run 5)

(* Containment: left-deep optimum >= bushy optimum; connected-only
   optimum >= unrestricted optimum (the paper's search-space argument). *)
let prop_search_space_containment =
  QCheck2.Test.make ~count:80 ~name:"restricted search spaces never beat the full space"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let bushy = Blitzsplit.best_cost (Blitzsplit.optimize_join p.model p.catalog p.graph) in
      let ld = (B.Leftdeep.optimize p.model p.catalog p.graph).B.Leftdeep.cost in
      let nocross = (B.Dpsize.optimize ~cartesian:false p.model p.catalog p.graph).B.Dpsize.cost in
      let slack = 1.0 +. 1e-9 in
      ld >= bushy /. slack && nocross >= bushy /. slack)

let suite =
  [
    Alcotest.test_case "eval matches reference costing" `Quick test_eval_matches_reference_costing;
    Alcotest.test_case "left-deep DP vs permutation oracle" `Quick
      test_leftdeep_vs_permutation_oracle;
    Alcotest.test_case "left-deep product policies" `Quick test_leftdeep_policies;
    Alcotest.test_case "dpsize = blitzsplit optimum" `Quick test_dpsize_matches_blitzsplit;
    Alcotest.test_case "dpsize without products" `Quick test_dpsize_no_products_on_disconnected_graph;
    Alcotest.test_case "dpsize enumerator overhead (Section 2)" `Quick
      test_dpsize_enumerator_overhead;
    Alcotest.test_case "greedy validity" `Quick test_greedy_validity;
    Alcotest.test_case "transformation rules" `Quick test_transform_rules;
    Alcotest.test_case "paths and neighbors" `Quick test_internal_paths_and_neighbors;
    Alcotest.test_case "stochastic determinism" `Quick test_stochastic_determinism;
    QCheck_alcotest.to_alcotest prop_random_neighbor_preserves_leaves;
    QCheck_alcotest.to_alcotest prop_moves_can_reach_all_shapes;
    QCheck_alcotest.to_alcotest prop_stochastic_sound_and_bounded;
    QCheck_alcotest.to_alcotest prop_search_space_containment;
  ]
