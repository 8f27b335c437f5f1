(* Interesting sort orders (Section 6.5 extension): the (subset, order)
   DP against an independent plan-enumeration oracle. *)

open Test_helpers
module O = Blitz_core.Blitzsplit_orders
module Blitzsplit = Blitz_core.Blitzsplit

let check_float = Test_helpers.check_float

let sort_cost c = if c <= 1.0 then 0.0 else c *. log c

(* Independent oracle: enumerate every logical plan; per plan compute,
   bottom-up, the cheapest physical cost for each delivered order
   (None or an edge id), closing each node with sort enforcers.  The
   overall optimum is the min over plans and orders. *)
let oracle ?required_order catalog graph =
  let dnl = Cost_model.kdnl in
  let edges = Array.of_list (Join_graph.edges graph) in
  let n_edges = Array.length edges in
  let n = Catalog.n catalog in
  (* An order is realizable for a set only when its edge has an endpoint
     there (one cannot sort on an absent attribute). *)
  let realizable e set =
    let i, j, _ = edges.(e) in
    Relset.mem set i || Relset.mem set j
  in
  let close set card (by_order : float array) =
    (* slot 0 = unordered/any; slot e+1 = sorted on edge e *)
    let best_any = Array.fold_left Float.min Float.infinity by_order in
    by_order.(0) <- best_any;
    for e = 0 to n_edges - 1 do
      if realizable e set then
        by_order.(e + 1) <- Float.min by_order.(e + 1) (best_any +. sort_cost card)
    done;
    by_order
  in
  let rec go plan =
    match plan with
    | Plan.Leaf r ->
      let by_order = Array.make (n_edges + 1) Float.infinity in
      by_order.(0) <- 0.0;
      let card = Catalog.card catalog r in
      (close (Relset.singleton r) card by_order, Relset.singleton r, card)
    | Plan.Join (l, r) ->
      let lo, ls, lcard = go l in
      let ro, rs, rcard = go r in
      let out = lcard *. rcard *. Join_graph.pi_span graph ls rs in
      let by_order = Array.make (n_edges + 1) Float.infinity in
      (* Nested loop, either orientation; preserves the outer's order. *)
      let nl = Cost_model.kappa dnl ~out ~lcard ~rcard in
      for o = 0 to n_edges do
        by_order.(o) <- Float.min by_order.(o) (lo.(o) +. ro.(0) +. nl);
        by_order.(o) <- Float.min by_order.(o) (ro.(o) +. lo.(0) +. nl)
      done;
      (* Merge join on each spanning edge. *)
      for e = 0 to n_edges - 1 do
        let i, j, _ = edges.(e) in
        let spans = (Relset.mem ls i && Relset.mem rs j) || (Relset.mem ls j && Relset.mem rs i) in
        if spans then
          by_order.(e + 1) <-
            Float.min by_order.(e + 1) (lo.(e + 1) +. ro.(e + 1) +. lcard +. rcard)
      done;
      (close (Relset.union ls rs) out by_order, Relset.union ls rs, out)
  in
  let slot = match required_order with Some e -> e + 1 | None -> 0 in
  List.fold_left
    (fun acc plan ->
      let by_order, _, _ = go plan in
      Float.min acc by_order.(slot))
    Float.infinity
    (Plan.enumerate (Relset.full n))

let chain3 () =
  let catalog = Catalog.of_cards [| 100.0; 200.0; 50.0 |] in
  let graph = Join_graph.of_edges ~n:3 [ (0, 1, 0.01); (1, 2, 0.02) ] in
  (catalog, graph)

let test_order_of () =
  let p = O.Merge_join (O.Sort (O.Scan 0, 1), O.Sort (O.Nested_loop (O.Scan 1, O.Scan 2), 1), 1) in
  Alcotest.(check (option int)) "order delivered" (Some 1) (O.order_of p);
  Alcotest.(check (option int)) "scan unordered" None (O.order_of (O.Scan 0));
  Alcotest.(check (option int)) "NL preserves outer order" (Some 0)
    (O.order_of (O.Nested_loop (O.Sort (O.Scan 1, 0), O.Scan 2)))

let test_phys_cost_rejects_bad_merge () =
  let catalog, graph = chain3 () in
  Alcotest.check_raises "unsorted merge input"
    (Invalid_argument "phys_cost: merge-join inputs must deliver the join order") (fun () ->
      ignore (O.phys_cost catalog graph (O.Merge_join (O.Scan 0, O.Scan 1, 0))));
  Alcotest.check_raises "sort on an absent attribute"
    (Invalid_argument "phys_cost: sort attribute absent from the input") (fun () ->
      ignore (O.phys_cost catalog graph (O.Sort (O.Scan 0, 1))))

let test_result_cost_is_recostable () =
  let catalog, graph = chain3 () in
  let r = O.optimize catalog graph in
  check_float ~rel:1e-9 "phys_cost agrees" (O.phys_cost catalog graph r.O.plan) r.O.cost

let test_never_worse_than_sm_dnl_reference () =
  let catalog, graph = chain3 () in
  let r = O.optimize catalog graph in
  let reference = O.sm_dnl_reference_cost catalog graph in
  Alcotest.(check bool)
    (Printf.sprintf "orders %.4g <= reference %.4g" r.O.cost reference)
    true
    (r.O.cost <= reference *. (1.0 +. 1e-9))

let test_order_reuse_beats_reference () =
  (* Threading pays: sort the small R1 (383 rows), cross it with R0 as
     the nested-loop outer — the 7.4M-row product comes out already
     sorted on R1's join attribute — then merge-join the sorted R2.  The
     order-blind reference must instead sort the 7.4M-row intermediate
     from scratch (or pay kappa_dnl's quadratic term), costing ~14x
     more. *)
  let catalog = Catalog.of_cards [| 19278.0; 383.0; 16615.0 |] in
  let graph = Join_graph.of_edges ~n:3 [ (1, 2, 0.0183) ] in
  let r = O.optimize catalog graph in
  let reference = O.sm_dnl_reference_cost catalog graph in
  Alcotest.(check bool)
    (Printf.sprintf "strict win: %.6g < %.6g" r.O.cost reference)
    true
    (r.O.cost < reference /. 2.0);
  (* And the winning plan indeed threads an order through a nested loop
     into a merge join. *)
  let rec has_mj = function
    | O.Scan _ -> false
    | O.Sort (p, _) -> has_mj p
    | O.Nested_loop (l, r) -> has_mj l || has_mj r
    | O.Merge_join (O.Nested_loop _, _, _) | O.Merge_join (_, O.Nested_loop _, _) -> true
    | O.Merge_join (l, r, _) -> has_mj l || has_mj r
  in
  Alcotest.(check bool) "merge-join consumes a nested-loop-preserved order" true
    (has_mj r.O.plan)

let test_required_order () =
  let catalog, graph = chain3 () in
  let unconstrained = O.optimize catalog graph in
  let constrained = O.optimize ~required_order:1 catalog graph in
  Alcotest.(check (option int)) "delivers the required order" (Some 1)
    (O.order_of constrained.O.plan);
  Alcotest.(check bool) "never cheaper than unconstrained" true
    (constrained.O.cost >= unconstrained.O.cost -. 1e-9);
  check_float ~rel:1e-9 "recostable" (O.phys_cost catalog graph constrained.O.plan)
    constrained.O.cost;
  Alcotest.check_raises "bad edge id"
    (Invalid_argument "Blitzsplit_orders: required_order out of range") (fun () ->
      ignore (O.optimize ~required_order:9 catalog graph))

let prop_matches_oracle =
  QCheck2.Test.make ~count:80 ~name:"orders DP = plan-enumeration oracle (n<=5)"
    ~print:problem_print (problem_gen ~max_n:5)
    (fun p ->
      let r = O.optimize p.catalog p.graph in
      let oracle_cost = oracle p.catalog p.graph in
      if not (Blitz_util.Float_more.approx_equal ~rel:1e-6 r.O.cost oracle_cost) then
        QCheck2.Test.fail_reportf "DP %.9g vs oracle %.9g" r.O.cost oracle_cost;
      true)

let prop_matches_oracle_with_required_order =
  QCheck2.Test.make ~count:60 ~name:"orders DP honors required_order optimally (n<=5)"
    ~print:problem_print (problem_gen ~max_n:5)
    (fun p ->
      match Join_graph.edges p.graph with
      | [] -> true
      | edges ->
        let rng = Rng.create ~seed:(p.seed + 5) in
        let e = Rng.int rng (List.length edges) in
        let r = O.optimize ~required_order:e p.catalog p.graph in
        let oracle_cost = oracle ~required_order:e p.catalog p.graph in
        Blitz_util.Float_more.approx_equal ~rel:1e-6 r.O.cost oracle_cost
        && O.order_of r.O.plan = Some e)

(* The relations a physical plan scans. *)
let rec scanned = function
  | O.Scan r -> Relset.singleton r
  | O.Sort (p, _) -> scanned p
  | O.Nested_loop (l, r) | O.Merge_join (l, r, _) -> Relset.union (scanned l) (scanned r)

let prop_result_always_recostable =
  QCheck2.Test.make ~count:80 ~name:"returned physical plans re-cost to the reported optimum"
    ~print:problem_print (problem_gen ~max_n:7)
    (fun p ->
      let r = O.optimize p.catalog p.graph in
      let n = Catalog.n p.catalog in
      Relset.equal (scanned r.O.plan) (Relset.full n)
      && Blitz_util.Float_more.approx_equal ~rel:1e-6
           (O.phys_cost p.catalog p.graph r.O.plan)
           r.O.cost)

let prop_never_worse_than_reference =
  QCheck2.Test.make ~count:80 ~name:"order reuse never loses to min(ksm, kdnl) blitzsplit"
    ~print:problem_print (problem_gen ~max_n:7)
    (fun p ->
      let r = O.optimize p.catalog p.graph in
      r.O.cost <= O.sm_dnl_reference_cost p.catalog p.graph *. (1.0 +. 1e-9))

let suite =
  [
    Alcotest.test_case "delivered order" `Quick test_order_of;
    Alcotest.test_case "phys_cost validation" `Quick test_phys_cost_rejects_bad_merge;
    Alcotest.test_case "result recosts to reported cost" `Quick test_result_cost_is_recostable;
    Alcotest.test_case "never worse than min(ksm,kdnl)" `Quick
      test_never_worse_than_sm_dnl_reference;
    Alcotest.test_case "order reuse wins strictly" `Quick test_order_reuse_beats_reference;
    Alcotest.test_case "required final order" `Quick test_required_order;
    QCheck_alcotest.to_alcotest prop_matches_oracle;
    QCheck_alcotest.to_alcotest prop_matches_oracle_with_required_order;
    QCheck_alcotest.to_alcotest prop_result_always_recostable;
    QCheck_alcotest.to_alcotest prop_never_worse_than_reference;
  ]
