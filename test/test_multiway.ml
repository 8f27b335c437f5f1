(* Hybrid bushy+multiway planning: the AGM cover solver, the structural
   gate, bit-identity on acyclic topologies, hybrid wins on cyclic
   cores, and end-to-end flow through dpccp, the engine cache and the
   fingerprint rebase. *)

open Test_helpers
module Hypergraph = Blitz_graph.Hypergraph
module Agm = Blitz_cost.Agm
module Blitzsplit = Blitz_core.Blitzsplit
module Multiway = Blitz_core.Multiway
module Counters = Blitz_core.Counters
module Dpccp = Blitz_dpccp.Dpccp
module Engine = Blitz_engine.Engine
module Registry = Blitz_engine.Registry
module Plan_cache = Blitz_cache.Plan_cache
module Fingerprint = Blitz_cache.Fingerprint
module Workload = Blitz_workload.Workload

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let solve ~n edges cards set =
  let packed = Hypergraph.pack (Hypergraph.of_join_graph (Join_graph.of_edges ~n edges)) in
  Agm.fractional_edge_cover (Catalog.of_cards cards) packed set

(* {1 The AGM cover solver on hand-computed optima} *)

let test_triangle_cover () =
  (* Triangle, N = 100 each, sel = 0.01 each: the classic fractional
     cover is x = 1/2 on every edge, bound = (N^2 s)^(3/2) = N^3 s^(3/2)
     = 1e6 * 1e-3 = 1000 — strictly below the pairwise-join estimate. *)
  let edges = [ (0, 1, 0.01); (1, 2, 0.01); (0, 2, 0.01) ] in
  let c = solve ~n:3 edges [| 100.0; 100.0; 100.0 |] (Relset.full 3) in
  Alcotest.(check bool) "exhaustive" true c.Agm.exact;
  check_float ~rel:1e-9 "triangle bound" 1000.0 c.Agm.bound;
  Alcotest.(check int) "three weighted edges" 3 (List.length c.Agm.weights);
  List.iter (fun (_, w) -> check_float "half-integral" 0.5 w) c.Agm.weights

let test_four_clique_cover () =
  (* K4, N = 100, s = 0.01: a perfect matching at weight 1 attains the
     half-integral optimum G = 4 ln N + 2 ln s, bound = N^4 s^2 = 1e4.
     Three matchings tie, so assert the bound, not the weights. *)
  let e a b = (a, b, 0.01) in
  let edges = [ e 0 1; e 0 2; e 0 3; e 1 2; e 1 3; e 2 3 ] in
  let c = solve ~n:4 edges [| 100.0; 100.0; 100.0; 100.0 |] (Relset.full 4) in
  Alcotest.(check bool) "exhaustive (m = 6 = cap)" true c.Agm.exact;
  check_float ~rel:1e-9 "4-clique bound" 1e4 c.Agm.bound

let test_four_cycle_cover () =
  (* C4: the matching {01, 23} at weight 1 and the all-1/2 cover give
     the same G = 4 ln N + 2 ln s — a genuine LP tie.  Bound only. *)
  let e a b = (a, b, 0.01) in
  let edges = [ e 0 1; e 1 2; e 2 3; e 3 0 ] in
  let c = solve ~n:4 edges [| 100.0; 100.0; 100.0; 100.0 |] (Relset.full 4) in
  check_float ~rel:1e-9 "4-cycle bound" 1e4 c.Agm.bound

let test_edgeless_and_induced () =
  (* No induced edge: all self-covers, bound = product of cards.  A
     subset that cuts every edge behaves the same. *)
  let c = solve ~n:4 [ (0, 1, 0.5) ] [| 10.0; 20.0; 30.0; 40.0 |] (Relset.of_list [ 2; 3 ]) in
  check_float "pure product" 1200.0 c.Agm.bound;
  Alcotest.(check int) "no weights" 0 (List.length c.Agm.weights)

let test_descent_beyond_cap () =
  (* A 5-clique induces 10 edges, past the exhaustive solver's 6: the
     coordinate descent runs instead.  It starts from all-1/2 (objective
     N^10 s^5 = 1e10 here) and only ever descends, and any x >= 0 is a
     sound bound, so the result must be finite and no worse than the
     start. *)
  let edges = ref [] in
  for i = 0 to 4 do
    for j = i + 1 to 4 do
      edges := (i, j, 0.01) :: !edges
    done
  done;
  let c = solve ~n:5 !edges (Array.make 5 100.0) (Relset.full 5) in
  Alcotest.(check bool) "not exhaustive" false c.Agm.exact;
  Alcotest.(check bool) "finite" true (Float.is_finite c.Agm.bound);
  Alcotest.(check bool) "no worse than the all-1/2 start" true (c.Agm.bound <= 1e10)

let test_kappa_multiway () =
  (* kappa = sum(inputs) + min(agm, max(out, max_input)). *)
  check_float "agm caps" (60.0 +. 25.0)
    (Agm.kappa_multiway ~inputs:[ 10.0; 20.0; 30.0 ] ~out:5.0 ~agm:25.0);
  check_float "out floor" (60.0 +. 100.0)
    (Agm.kappa_multiway ~inputs:[ 10.0; 20.0; 30.0 ] ~out:100.0 ~agm:1e9);
  check_float "max input floor" (60.0 +. 30.0)
    (Agm.kappa_multiway ~inputs:[ 10.0; 20.0; 30.0 ] ~out:5.0 ~agm:1e9)

(* {1 The structural gate} *)

let test_two_edge_connected_gate () =
  let triangle =
    Join_graph.of_edges ~n:4 [ (0, 1, 0.1); (1, 2, 0.1); (0, 2, 0.1); (2, 3, 0.1) ]
  in
  let tec = Join_graph.two_edge_connected_subset triangle in
  Alcotest.(check bool) "triangle core" true (tec (Relset.of_list [ 0; 1; 2 ]));
  Alcotest.(check bool) "pendant breaks it" false (tec (Relset.full 4));
  Alcotest.(check bool) "pairs never qualify" false (tec (Relset.of_list [ 0; 1 ]));
  let chain = Join_graph.of_edges ~n:5 [ (0, 1, 0.1); (1, 2, 0.1); (2, 3, 0.1); (3, 4, 0.1) ] in
  let tec = Join_graph.two_edge_connected_subset chain in
  for s = 1 to (1 lsl 5) - 1 do
    if tec s then Alcotest.failf "chain subset %d claimed 2-edge-connected" s
  done

(* {1 Acyclic topologies: bit-identity to the seed optimizer} *)

let random_tree rng ~n =
  (* Random parent links give a uniform-enough spanning tree. *)
  let edges = ref [] in
  for i = 1 to n - 1 do
    let p = Rng.int rng i in
    edges := (p, i, Rng.log_uniform rng ~lo:1e-4 ~hi:1.0) :: !edges
  done;
  Join_graph.of_edges ~n !edges

let test_acyclic_bit_identity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150
       ~name:"acyclic graphs: --multiway is bit-identical to the seed optimizer"
       ~print:string_of_int
       QCheck2.Gen.(int_bound 1_000_000)
       (fun seed ->
         let rng = Rng.create ~seed in
         let n = 2 + Rng.int rng 9 in
         let catalog = random_catalog rng ~n ~lo:1.0 ~hi:1e4 in
         let graph = random_tree rng ~n in
         let model =
           match Rng.int rng 3 with
           | 0 -> Cost_model.naive
           | 1 -> Cost_model.sort_merge
           | _ -> Cost_model.kdnl
         in
         let ctr = Counters.create () in
         let seed_run = Blitzsplit.optimize_join model catalog graph in
         let mw_run =
           Blitzsplit.optimize_join ~counters:ctr ~multiway:true model catalog graph
         in
         let plans_equal =
           match (Blitzsplit.best_plan seed_run, Blitzsplit.best_plan mw_run) with
           | Some a, Some b -> Plan.equal a b && not (Plan.has_multiway b)
           | None, None -> true
           | _ -> false
         in
         ctr.Counters.multiway_wins = 0
         && same_float (Blitzsplit.best_cost seed_run) (Blitzsplit.best_cost mw_run)
         && plans_equal))

(* {1 Cyclic cores: the hybrid strictly wins and flows end-to-end} *)

let clique_problem ?(n = 8) () =
  let spec =
    Workload.spec ~n ~topology:Topology.Clique ~model:Cost_model.kdnl ~mean_card:100.0
      ~variability:0.5
  in
  Workload.problem spec

let test_clique_hybrid_wins () =
  let catalog, graph = clique_problem () in
  let model = Cost_model.kdnl in
  let ctr = Counters.create () in
  let binary = Blitzsplit.optimize_join model catalog graph in
  let hybrid = Blitzsplit.optimize_join ~counters:ctr ~multiway:true model catalog graph in
  Alcotest.(check bool) "strictly cheaper" true
    (Blitzsplit.best_cost hybrid < Blitzsplit.best_cost binary);
  Alcotest.(check bool) "some multiway wins" true (ctr.Counters.multiway_wins > 0);
  let plan = Blitzsplit.best_plan_exn hybrid in
  Alcotest.(check bool) "plan contains a multiway node" true (Plan.has_multiway plan);
  Alcotest.(check bool) "covers all relations" true
    (Relset.equal (Plan.relations plan) (Relset.full (Catalog.n catalog)));
  (* The extracted plan re-prices to the table's cost: Plan.cost
     re-solves the AGM bound from the catalog, exactly as the DP did. *)
  check_float ~rel:1e-9 "plan re-prices to table cost" (Blitzsplit.best_cost hybrid)
    (Plan.cost model catalog graph plan)

let test_threshold_multiway () =
  (* Under a threshold the exact entry escalates until a pass succeeds;
     with multiway on, its final answer matches the unthresholded hybrid
     run. *)
  let catalog, graph = clique_problem () in
  let model = Cost_model.kdnl in
  let exact = Blitzsplit.optimize_join ~multiway:true model catalog graph in
  let o =
    Registry.optimize
      (Registry.ctx ~threshold:10.0 ~multiway:true model)
      (Registry.problem ~graph catalog)
  in
  Alcotest.(check bool) "escalated" true (o.Registry.passes > 1);
  check_float ~rel:1e-12 "thresholded = exact" (Blitzsplit.best_cost exact) o.Registry.cost

let test_dpccp_multiway () =
  let model = Cost_model.kdnl in
  (* Clique: connectivity never binds, so dpccp's hybrid answer matches
     blitzsplit's hybrid answer (same table recurrence, same gate). *)
  let catalog, graph = clique_problem () in
  let bs = Blitzsplit.optimize_join ~multiway:true model catalog graph in
  let dp = Dpccp.optimize ~multiway:true model catalog graph in
  check_float ~rel:1e-12 "dense dpccp = blitzsplit (clique)" (Blitzsplit.best_cost bs)
    dp.Dpccp.cost;
  (match dp.Dpccp.plan with
  | Some p -> Alcotest.(check bool) "dpccp plan is hybrid" true (Plan.has_multiway p)
  | None -> Alcotest.fail "dpccp returned no plan");
  (* Sparse backend: force it on the same problem; cost must agree. *)
  let sp = Dpccp.optimize ~backend:`Sparse ~multiway:true model catalog graph in
  check_float ~rel:1e-9 "sparse dpccp agrees" dp.Dpccp.cost sp.Dpccp.cost;
  (* Chain: acyclic, so multiway must change nothing — bitwise. *)
  let spec =
    Workload.spec ~n:10 ~topology:Topology.Chain ~model ~mean_card:100.0 ~variability:0.3
  in
  let ccat, cgraph = Workload.problem spec in
  let a = Dpccp.optimize model ccat cgraph in
  let b = Dpccp.optimize ~multiway:true model ccat cgraph in
  Alcotest.(check bool) "chain bitwise" true (same_float a.Dpccp.cost b.Dpccp.cost)

(* {1 Fingerprint: n-ary plans canonize and rebase losslessly} *)

let test_fingerprint_roundtrip_multiway () =
  let catalog, graph = clique_problem () in
  let model = Cost_model.kdnl in
  let plan = Blitzsplit.best_plan_exn (Blitzsplit.optimize_join ~multiway:true model catalog graph) in
  Alcotest.(check bool) "hybrid plan" true (Plan.has_multiway plan);
  let s = Fingerprint.create_scratch () in
  Fingerprint.compute s ~model_digest:(Fingerprint.model_digest model) catalog (Some graph);
  let round = Fingerprint.rebase_plan s (Fingerprint.canonize_plan s plan) in
  Alcotest.(check bool) "rebase . canonize = id" true (Plan.equal plan round);
  Alcotest.(check bool) "multiway survives the roundtrip" true (Plan.has_multiway round)

(* {1 Engine cache: the +mw key keeps plan populations apart} *)

let test_cache_isolation () =
  let catalog, graph = clique_problem () in
  let model = Cost_model.kdnl in
  let prob = Registry.problem ~graph catalog in
  let cache = Plan_cache.create () in
  Engine.with_session ~model ~cache (fun session ->
      let mw = Engine.optimize ~multiway:true session prob in
      let mw_plan = match mw.Registry.plan with Some p -> p | None -> Alcotest.fail "no plan" in
      Alcotest.(check bool) "hybrid cached run has multiway" true (Plan.has_multiway mw_plan);
      (* A multiway=false caller on the same query must never be served
         the n-ary plan — the decorated key routes it to a miss. *)
      let before = Plan_cache.stats cache in
      let plain = Engine.optimize session prob in
      let after = Plan_cache.stats cache in
      Alcotest.(check int) "plain call misses the +mw entry" before.Plan_cache.hits
        after.Plan_cache.hits;
      (match plain.Registry.plan with
      | Some p -> Alcotest.(check bool) "binary plan stays binary" false (Plan.has_multiway p)
      | None -> Alcotest.fail "no plan");
      (* And the hybrid caller hits its own entry, bit-identically. *)
      let b2 = Plan_cache.stats cache in
      let hit = Engine.optimize ~multiway:true session prob in
      let a2 = Plan_cache.stats cache in
      Alcotest.(check int) "hybrid rerun hits" (b2.Plan_cache.hits + 1) a2.Plan_cache.hits;
      Alcotest.(check bool) "hit cost bit-identical" true
        (same_float mw.Registry.cost hit.Registry.cost);
      match hit.Registry.plan with
      | Some p -> Alcotest.(check bool) "hit plan is hybrid" true (Plan.has_multiway p)
      | None -> Alcotest.fail "no hit plan")

let test_incapable_optimizer_ignores_flag () =
  (* dpsize has no multiway capability: the flag neither changes its
     answer nor decorates its cache key. *)
  let catalog, graph = clique_problem ~n:6 () in
  let prob = Registry.problem ~graph catalog in
  let cache = Plan_cache.create () in
  Engine.with_session ~model:Cost_model.kdnl ~cache (fun session ->
      let cold = Engine.optimize ~optimizer:"dpsize" ~multiway:true session prob in
      (match cold.Registry.plan with
      | Some p -> Alcotest.(check bool) "no multiway node" false (Plan.has_multiway p)
      | None -> Alcotest.fail "no plan");
      let before = Plan_cache.stats cache in
      let hit = Engine.optimize ~optimizer:"dpsize" session prob in
      let after = Plan_cache.stats cache in
      Alcotest.(check int) "same key, so a hit" (before.Plan_cache.hits + 1)
        after.Plan_cache.hits;
      Alcotest.(check bool) "same cost" true (same_float cold.Registry.cost hit.Registry.cost))

let suite =
  [
    Alcotest.test_case "agm: triangle cover" `Quick test_triangle_cover;
    Alcotest.test_case "agm: 4-clique cover" `Quick test_four_clique_cover;
    Alcotest.test_case "agm: 4-cycle cover" `Quick test_four_cycle_cover;
    Alcotest.test_case "agm: edgeless/induced" `Quick test_edgeless_and_induced;
    Alcotest.test_case "agm: descent beyond the cap" `Quick test_descent_beyond_cap;
    Alcotest.test_case "agm: kappa_multiway" `Quick test_kappa_multiway;
    Alcotest.test_case "gate: 2-edge-connected subsets" `Quick test_two_edge_connected_gate;
    test_acyclic_bit_identity;
    Alcotest.test_case "clique: hybrid strictly wins" `Quick test_clique_hybrid_wins;
    Alcotest.test_case "thresholded multiway = exact" `Quick test_threshold_multiway;
    Alcotest.test_case "dpccp multiway (dense+sparse)" `Quick test_dpccp_multiway;
    Alcotest.test_case "fingerprint roundtrip (n-ary)" `Quick test_fingerprint_roundtrip_multiway;
    Alcotest.test_case "cache: +mw key isolation" `Quick test_cache_isolation;
    Alcotest.test_case "cache: incapable optimizer ignores flag" `Quick
      test_incapable_optimizer_ignores_flag;
  ]
