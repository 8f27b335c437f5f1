(* Core optimizer tests: the paper's Table 1 exactly, oracle comparisons
   against brute force, the fan recurrence, counters, determinism. *)

open Test_helpers
module Blitzsplit = Blitz_core.Blitzsplit
module Dp_table = Blitz_core.Dp_table
module Counters = Blitz_core.Counters
module Card_table = Blitz_core.Card_table
module Bruteforce = Blitz_baselines.Bruteforce

let s_of = Relset.of_list

(* ---- Table 1: the paper's worked Cartesian-product example ---- *)

let table1_result () = Blitzsplit.optimize_product Cost_model.naive abcd_catalog

let test_table1_cards () =
  let r = table1_result () in
  let card s = Dp_table.card r.Blitzsplit.table (s_of s) in
  check_float "card {A}" 10.0 (card [ 0 ]);
  check_float "card {B}" 20.0 (card [ 1 ]);
  check_float "card {C}" 30.0 (card [ 2 ]);
  check_float "card {D}" 40.0 (card [ 3 ]);
  check_float "card {A,B}" 200.0 (card [ 0; 1 ]);
  check_float "card {A,C}" 300.0 (card [ 0; 2 ]);
  check_float "card {A,D}" 400.0 (card [ 0; 3 ]);
  check_float "card {B,C}" 600.0 (card [ 1; 2 ]);
  check_float "card {B,D}" 800.0 (card [ 1; 3 ]);
  check_float "card {C,D}" 1200.0 (card [ 2; 3 ]);
  check_float "card {A,B,C}" 6000.0 (card [ 0; 1; 2 ]);
  check_float "card {A,B,D}" 8000.0 (card [ 0; 1; 3 ]);
  check_float "card {A,C,D}" 12000.0 (card [ 0; 2; 3 ]);
  check_float "card {B,C,D}" 24000.0 (card [ 1; 2; 3 ]);
  check_float "card {A,B,C,D}" 240000.0 (card [ 0; 1; 2; 3 ])

let test_table1_costs () =
  let r = table1_result () in
  let cost s = Dp_table.cost r.Blitzsplit.table (s_of s) in
  check_float "cost {A}" 0.0 (cost [ 0 ]);
  check_float "cost {D}" 0.0 (cost [ 3 ]);
  check_float "cost {A,B}" 200.0 (cost [ 0; 1 ]);
  check_float "cost {A,C}" 300.0 (cost [ 0; 2 ]);
  check_float "cost {A,D}" 400.0 (cost [ 0; 3 ]);
  check_float "cost {B,C}" 600.0 (cost [ 1; 2 ]);
  check_float "cost {B,D}" 800.0 (cost [ 1; 3 ]);
  check_float "cost {C,D}" 1200.0 (cost [ 2; 3 ]);
  check_float "cost {A,B,C}" 6200.0 (cost [ 0; 1; 2 ]);
  check_float "cost {A,B,D}" 8200.0 (cost [ 0; 1; 3 ]);
  check_float "cost {A,C,D}" 12300.0 (cost [ 0; 2; 3 ]);
  check_float "cost {B,C,D}" 24600.0 (cost [ 1; 2; 3 ]);
  check_float "cost {A,B,C,D}" 241000.0 (cost [ 0; 1; 2; 3 ])

let test_table1_best_split () =
  let r = table1_result () in
  let best = Dp_table.best_lhs r.Blitzsplit.table (s_of [ 0; 1; 2; 3 ]) in
  (* The optimal split is {A,D} x {B,C}; either orientation is valid. *)
  let ok = Relset.equal best (s_of [ 0; 3 ]) || Relset.equal best (s_of [ 1; 2 ]) in
  Alcotest.(check bool) "best split is {A,D} | {B,C}" true ok;
  (* And the extracted plan, normalized, is (A x D) x (B x C). *)
  let plan = Plan.normalize (Blitzsplit.best_plan_exn r) in
  let expected = Plan.(Join (Join (Leaf 0, Leaf 3), Join (Leaf 1, Leaf 2))) in
  Alcotest.(check bool) "plan is (A x D) x (B x C)" true (Plan.equal plan expected);
  Alcotest.(check string)
    "compact rendering" "((A x D) x (B x C))"
    (Plan.to_compact_string ~names:(Catalog.names abcd_catalog) plan)

let test_table1_dump () =
  let r = table1_result () in
  let dump = Dp_table.dump ~names:(Catalog.names abcd_catalog) r.Blitzsplit.table in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and dl = String.length dump in
        let rec scan i = i + nl <= dl && (String.sub dump i nl = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (Printf.sprintf "dump contains %S" needle) true found)
    [ "Relation Set"; "{A, B, C, D}"; "240000"; "241000"; "none" ]

(* ---- Fundamental invariants ---- *)

let test_single_relation () =
  let catalog = Catalog.of_list [ ("only", 42.0) ] in
  let r = Blitzsplit.optimize_product Cost_model.naive catalog in
  check_float "cost" 0.0 (Blitzsplit.best_cost r);
  Alcotest.(check bool) "plan" true (Plan.equal (Blitzsplit.best_plan_exn r) (Plan.Leaf 0))

let test_two_relations_join () =
  let catalog = Catalog.of_list [ ("A", 100.0); ("B", 50.0) ] in
  let graph = Join_graph.of_edges ~n:2 [ (0, 1, 0.01) ] in
  let r = Blitzsplit.optimize_join Cost_model.naive catalog graph in
  check_float "cost = |A||B|s" 50.0 (Blitzsplit.best_cost r)

let test_counters_match_analysis () =
  (* Without thresholds the split loop runs exactly
     (3^n - 2^(n+1) + 1) / 2 times in aggregate: once per unordered
     split, half Section 3.3's count of ordered splits. *)
  List.iter
    (fun n ->
      let catalog = Catalog.uniform ~n ~card:100.0 in
      let r = Blitzsplit.optimize_product Cost_model.naive catalog in
      Alcotest.(check int)
        (Printf.sprintf "loop iters at n=%d" n)
        (Counters.exact_loop_iters n)
        r.Blitzsplit.counters.Counters.loop_iters;
      Alcotest.(check int)
        (Printf.sprintf "subsets at n=%d" n)
        ((1 lsl n) - n - 1)
        r.Blitzsplit.counters.Counters.subsets)
    [ 2; 3; 5; 8; 11 ]

let test_determinism () =
  let rng = Rng.create ~seed:7 in
  let catalog = random_catalog rng ~n:8 ~lo:1.0 ~hi:1e5 in
  let graph = random_graph rng ~n:8 ~edge_prob:0.4 ~sel_lo:1e-3 ~sel_hi:1.0 in
  let r1 = Blitzsplit.optimize_join Cost_model.kdnl catalog graph in
  let r2 = Blitzsplit.optimize_join Cost_model.kdnl catalog graph in
  check_float "same cost" (Blitzsplit.best_cost r1) (Blitzsplit.best_cost r2);
  Alcotest.(check bool)
    "same plan" true
    (Plan.equal (Blitzsplit.best_plan_exn r1) (Blitzsplit.best_plan_exn r2))

let test_size_mismatch_rejected () =
  let catalog = Catalog.uniform ~n:3 ~card:10.0 in
  let graph = Join_graph.no_predicates ~n:4 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Blitzsplit: graph over 4 relations, catalog has 3") (fun () ->
      ignore (Blitzsplit.optimize_join Cost_model.naive catalog graph))

(* A star query with tiny dimension tables: the optimal plan contains a
   Cartesian product (the paper's motivating scenario, Sections 1/7). *)
let test_cartesian_product_chosen_when_optimal () =
  (* Under the naive model, crossing the tiny dimensions first costs
     3*4 = 12 and the final join 12, total 24; any plan joining the fact
     table early pays at least |fact| * 1e-3 = 1000. *)
  let catalog = Catalog.of_list [ ("dim1", 3.0); ("dim2", 4.0); ("fact", 1_000_000.0) ] in
  let graph = Join_graph.of_edges ~n:3 [ (0, 2, 1e-3); (1, 2, 1e-3) ] in
  let r = Blitzsplit.optimize_join Cost_model.naive catalog graph in
  let plan = Blitzsplit.best_plan_exn r in
  Alcotest.(check int) "one cartesian product" 1 (Plan.cartesian_join_count graph plan);
  (* The product of the two dimensions must be joined with the fact table
     last: ((dim1 x dim2) x fact) up to commutativity. *)
  let expected = Plan.(Join (Join (Leaf 0, Leaf 1), Leaf 2)) in
  Alcotest.(check bool) "plan shape" true (Plan.equal (Plan.normalize plan) expected)

(* ---- Properties ---- *)

let prop_matches_bruteforce =
  QCheck2.Test.make ~count:150 ~name:"blitzsplit finds the brute-force optimum (n<=7)"
    ~print:problem_print (problem_gen ~max_n:7)
    (fun p ->
      let r = Blitzsplit.optimize_join p.model p.catalog p.graph in
      let _, oracle_cost = Bruteforce.optimize p.model p.catalog p.graph in
      let cost = Blitzsplit.best_cost r in
      if not (Blitz_util.Float_more.approx_equal ~rel:1e-6 cost oracle_cost) then
        QCheck2.Test.fail_reportf "blitzsplit %.9g vs bruteforce %.9g" cost oracle_cost;
      true)

let prop_fan_recurrence_cardinalities =
  QCheck2.Test.make ~count:150
    ~name:"table cardinalities equal induced-subgraph products (Eq. 7/11)" ~print:problem_print
    (problem_gen ~max_n:8)
    (fun p ->
      let r = Blitzsplit.optimize_join p.model p.catalog p.graph in
      let n = Catalog.n p.catalog in
      let ok = ref true in
      for s = 1 to (1 lsl n) - 1 do
        let expected = Join_graph.join_cardinality p.catalog p.graph s in
        let got = Dp_table.card r.Blitzsplit.table s in
        if not (Blitz_util.Float_more.approx_equal ~rel:1e-9 expected got) then ok := false
      done;
      !ok)

let prop_extracted_plan_cost_matches_table =
  QCheck2.Test.make ~count:150 ~name:"reference costing of the extracted plan = table cost"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let r = Blitzsplit.optimize_join p.model p.catalog p.graph in
      let plan = Blitzsplit.best_plan_exn r in
      Blitz_util.Float_more.approx_equal ~rel:1e-6
        (Plan.cost p.model p.catalog p.graph plan)
        (Blitzsplit.best_cost r))

let prop_product_is_join_with_empty_graph =
  QCheck2.Test.make ~count:100 ~name:"product optimizer = join optimizer on the empty graph"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let n = Catalog.n p.catalog in
      let product = Blitzsplit.optimize_product p.model p.catalog in
      let join = Blitzsplit.optimize_join p.model p.catalog (Join_graph.no_predicates ~n) in
      Blitz_util.Float_more.approx_equal ~rel:1e-9 (Blitzsplit.best_cost product)
        (Blitzsplit.best_cost join))

let prop_optimum_beats_random_plans =
  QCheck2.Test.make ~count:100 ~name:"no random plan beats the reported optimum"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let r = Blitzsplit.optimize_join p.model p.catalog p.graph in
      let best = Blitzsplit.best_cost r in
      let rng = Rng.create ~seed:(p.seed + 17) in
      let full = Relset.full (Catalog.n p.catalog) in
      let ok = ref true in
      for _ = 1 to 25 do
        let plan = Blitz_baselines.Transform.random_bushy rng full in
        if Plan.cost p.model p.catalog p.graph plan < best *. (1.0 -. 1e-9) then ok := false
      done;
      !ok)

let prop_every_subset_feasible_without_threshold =
  QCheck2.Test.make ~count:80 ~name:"every subset has a plan when no threshold is set"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let r = Blitzsplit.optimize_join p.model p.catalog p.graph in
      let n = Catalog.n p.catalog in
      let ok = ref true in
      for s = 1 to (1 lsl n) - 1 do
        if not (Float.is_finite (Dp_table.cost r.Blitzsplit.table s)) then ok := false;
        match Dp_table.extract_plan r.Blitzsplit.table s with
        | None -> ok := false
        | Some plan -> if not (Relset.equal (Plan.relations plan) s) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "Table 1: cardinalities" `Quick test_table1_cards;
    Alcotest.test_case "Table 1: costs" `Quick test_table1_costs;
    Alcotest.test_case "Table 1: best split and plan" `Quick test_table1_best_split;
    Alcotest.test_case "Table 1: dump rendering" `Quick test_table1_dump;
    Alcotest.test_case "single relation" `Quick test_single_relation;
    Alcotest.test_case "two-relation join" `Quick test_two_relations_join;
    Alcotest.test_case "loop counters match Section 3.3" `Quick test_counters_match_analysis;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "graph/catalog size mismatch" `Quick test_size_mismatch_rejected;
    Alcotest.test_case "optimal Cartesian product retained" `Quick
      test_cartesian_product_chosen_when_optimal;
    QCheck_alcotest.to_alcotest prop_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_fan_recurrence_cardinalities;
    QCheck_alcotest.to_alcotest prop_extracted_plan_cost_matches_table;
    QCheck_alcotest.to_alcotest prop_product_is_join_with_empty_graph;
    QCheck_alcotest.to_alcotest prop_optimum_beats_random_plans;
    QCheck_alcotest.to_alcotest prop_every_subset_feasible_without_threshold;
  ]
