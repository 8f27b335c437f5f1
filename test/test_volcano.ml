(* Volcano-style rule-based optimizer: completeness of the rule set and
   agreement with blitzsplit. *)

open Test_helpers
module Volcano = Blitz_baselines.Volcano
module Blitzsplit = Blitz_core.Blitzsplit
module Counters = Blitz_core.Counters

let test_rule_closure_is_complete () =
  (* After closure the memo must contain every ordered split of every
     subset: exactly the 3^n - 2^(n+1) + 1 pairs of Section 3.3, twice
     the unordered splits blitzsplit iterates. *)
  List.iter
    (fun n ->
      let catalog = Catalog.uniform ~n ~card:100.0 in
      let graph = Join_graph.no_predicates ~n in
      let (_, _), stats = Volcano.optimize Cost_model.naive catalog graph in
      Alcotest.(check int)
        (Printf.sprintf "expressions at n=%d" n)
        (2 * Counters.exact_loop_iters n)
        stats.Volcano.expressions;
      Alcotest.(check int)
        (Printf.sprintf "groups at n=%d" n)
        ((1 lsl n) - 1)
        stats.Volcano.groups)
    [ 2; 3; 4; 6; 8 ]

let test_stats_sanity () =
  let catalog = Catalog.uniform ~n:5 ~card:10.0 in
  let graph = Join_graph.no_predicates ~n:5 in
  let (_, _), stats = Volcano.optimize Cost_model.naive catalog graph in
  Alcotest.(check bool) "duplicates were suppressed" true (stats.Volcano.duplicates_suppressed > 0);
  Alcotest.(check bool) "rule applications cover discovery" true
    (stats.Volcano.rule_applications >= stats.Volcano.expressions)

let test_table1_example () =
  let r, _ = Volcano.optimize Cost_model.naive abcd_catalog (Join_graph.no_predicates ~n:4) in
  Test_helpers.check_float "Table 1 optimum" 241000.0 (snd r);
  Alcotest.(check bool) "same plan as the paper (normalized)" true
    (Plan.equal
       (Plan.normalize (fst r))
       Plan.(Join (Join (Leaf 0, Leaf 3), Join (Leaf 1, Leaf 2))))

let prop_matches_blitzsplit =
  QCheck2.Test.make ~count:120 ~name:"Volcano memo optimum = blitzsplit optimum"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let (plan, cost), _ = Volcano.optimize p.model p.catalog p.graph in
      let bs = Blitzsplit.best_cost (Blitzsplit.optimize_join p.model p.catalog p.graph) in
      Blitz_util.Float_more.approx_equal ~rel:1e-6 cost bs
      && Relset.equal (Plan.relations plan) (Relset.full (Catalog.n p.catalog))
      && Blitz_util.Float_more.approx_equal ~rel:1e-6
           (Plan.cost p.model p.catalog p.graph plan)
           cost)

let prop_discovery_overhead =
  (* The memo reaches every ordered split, but rule firing plus
     duplicate suppression costs strictly more operations than the
     expressions discovered — the constant-factor point of Section 4. *)
  QCheck2.Test.make ~count:50 ~name:"rule discovery does more work than integer enumeration"
    QCheck2.Gen.(int_range 3 9)
    (fun n ->
      let catalog = Catalog.uniform ~n ~card:50.0 in
      let graph = Join_graph.no_predicates ~n in
      let (_, _), stats = Volcano.optimize Cost_model.naive catalog graph in
      stats.Volcano.rule_applications + stats.Volcano.duplicates_suppressed
      > 2 * Counters.exact_loop_iters n)

let suite =
  [
    Alcotest.test_case "rule closure is complete" `Quick test_rule_closure_is_complete;
    Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
    Alcotest.test_case "Table 1 example" `Quick test_table1_example;
    QCheck_alcotest.to_alcotest prop_matches_blitzsplit;
    QCheck_alcotest.to_alcotest prop_discovery_overhead;
  ]
