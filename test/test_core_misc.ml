(* Edge cases for the core bookkeeping modules: Dp_table bounds,
   Counters analytics, Card_table. *)

open Test_helpers
module Dp_table = Blitz_core.Dp_table
module Counters = Blitz_core.Counters
module Card_table = Blitz_core.Card_table
module Blitzsplit = Blitz_core.Blitzsplit

let check_float = Test_helpers.check_float

let test_dp_table_bounds () =
  Alcotest.check_raises "n too small" (Invalid_argument "Dp_table.create: n = 0 outside [1, 24]")
    (fun () -> ignore (Dp_table.create 0));
  Alcotest.check_raises "n too large" (Invalid_argument "Dp_table.create: n = 25 outside [1, 24]")
    (fun () -> ignore (Dp_table.create 25));
  let t = Dp_table.create 3 in
  Alcotest.(check int) "size" 8 (Dp_table.size t);
  Alcotest.(check int) "full set" 0b111 (Dp_table.full_set t);
  Alcotest.check_raises "empty set rejected"
    (Invalid_argument "Dp_table: set 0 outside table of 3 relations") (fun () ->
      ignore (Dp_table.cost t 0));
  Alcotest.check_raises "set beyond table"
    (Invalid_argument "Dp_table: set 8 outside table of 3 relations") (fun () ->
      ignore (Dp_table.cost t 8));
  (* A freshly created table is entirely infeasible. *)
  Alcotest.(check bool) "fresh tables are infeasible" false (Dp_table.is_feasible t 0b11);
  Alcotest.(check bool) "fresh extraction fails" true (Dp_table.extract_plan t 0b11 = None)

let test_counters_analytics () =
  (* (3^n - 2^(n+1) + 1) / 2 unordered splits for small n, by hand. *)
  Alcotest.(check int) "n=2" 1 (Counters.exact_loop_iters 2);
  Alcotest.(check int) "n=3" 6 (Counters.exact_loop_iters 3);
  Alcotest.(check int) "n=4" 25 (Counters.exact_loop_iters 4);
  check_float ~rel:1e-12 "lower bound n=4" (0.5 *. log 2.0 *. 4.0 *. 16.0)
    (Counters.predicted_dprime_lower 4);
  check_float "upper bound n=4" 81.0 (Counters.predicted_dprime_upper 4);
  (* copy is independent. *)
  let a = Counters.create () in
  a.Counters.subsets <- 5;
  let b = Counters.copy a in
  a.Counters.subsets <- 9;
  Alcotest.(check int) "copy unaffected" 5 b.Counters.subsets;
  Counters.reset a;
  Alcotest.(check int) "reset" 0 a.Counters.subsets;
  (* pp renders every field. *)
  let rendered = Format.asprintf "%a" Counters.pp b in
  Alcotest.(check bool) "pp mentions subsets" true
    (String.length rendered > 50 && String.contains rendered '5')

let test_card_table_against_reference () =
  let rng = Rng.create ~seed:12 in
  let catalog = random_catalog rng ~n:8 ~lo:1.0 ~hi:1e4 in
  let graph = random_graph rng ~n:8 ~edge_prob:0.4 ~sel_lo:1e-3 ~sel_hi:1.0 in
  let table = Card_table.compute catalog graph in
  for s = 1 to 255 do
    check_float ~rel:1e-9
      (Printf.sprintf "subset %d" s)
      (Join_graph.join_cardinality catalog graph s)
      table.(s)
  done;
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Card_table.compute: graph over 8 relations, catalog has 4") (fun () ->
      ignore (Card_table.compute abcd_catalog graph))

let test_subplan_extraction_optimal_substructure () =
  (* Every subset's extracted subplan re-costs to that subset's table
     cost — the DP's optimal-substructure invariant, checked directly. *)
  let rng = Rng.create ~seed:4 in
  let catalog = random_catalog rng ~n:7 ~lo:1.0 ~hi:1e4 in
  let graph = random_graph rng ~n:7 ~edge_prob:0.5 ~sel_lo:1e-3 ~sel_hi:1.0 in
  let r = Blitzsplit.optimize_join Cost_model.kdnl catalog graph in
  for s = 1 to 127 do
    match Blitzsplit.subplan r s with
    | None -> Alcotest.failf "subset %d infeasible without threshold" s
    | Some plan ->
      Alcotest.(check bool) "covers the subset" true (Relset.equal (Plan.relations plan) s);
      let sub = Blitz_graph.Induced.project catalog graph s in
      let dense = Plan.map_leaves
        (fun parent ->
          let rec find i = if sub.Blitz_graph.Induced.to_parent.(i) = parent then i else find (i + 1) in
          find 0)
        plan
      in
      check_float ~rel:1e-6
        (Printf.sprintf "subplan cost for %d" s)
        (Dp_table.cost r.Blitzsplit.table s)
        (Plan.cost Cost_model.kdnl sub.Blitz_graph.Induced.catalog sub.Blitz_graph.Induced.graph
           dense)
  done

let suite =
  [
    Alcotest.test_case "dp table bounds" `Quick test_dp_table_bounds;
    Alcotest.test_case "counters analytics and lifecycle" `Quick test_counters_analytics;
    Alcotest.test_case "card table = reference" `Quick test_card_table_against_reference;
    Alcotest.test_case "optimal substructure of subplans" `Quick
      test_subplan_extraction_optimal_substructure;
  ]
