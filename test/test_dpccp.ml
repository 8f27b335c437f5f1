(* DPccp: enumerator counts against the closed-form formulas, a
   brute-force subset count and the size-driven no-products DP's join
   count; the emission order the fold relies on; the optimizer against
   that DP's optimum, against blitzsplit (bit-identity where the spaces
   agree), across its two backends and on overflowing statistics; and
   the DPconv bottleneck driver against a brute-force oracle over every
   bushy plan. *)

open Test_helpers
module Dpsize = Blitz_baselines.Dpsize
module Topology = Blitz_graph.Topology
module Workload = Blitz_workload.Workload
module Ccp_enum = Blitz_dpccp.Ccp_enum
module Dpccp = Blitz_dpccp.Dpccp
module Dpconv = Blitz_dpccp.Dpconv
module Blitzsplit = Blitz_core.Blitzsplit
module Float_more = Blitz_util.Float_more

let graph_of topo n =
  let catalog = Catalog.uniform ~n ~card:100.0 in
  Topology.make topo catalog

(* Closed forms (Moerkotte & Neumann 2006, Table 1). *)
let chain_ccp n = ((n * n * n) - n) / 6
let star_ccp n = (n - 1) * (1 lsl (n - 2))
let clique_ccp n = Blitz_core.Counters.exact_loop_iters n

(* The enumerator's counts, as a DPccp run reports them: the connected
   sets it reaches and the csg-cmp pairs it folds. *)
let run g =
  let n = Join_graph.n g in
  Dpccp.optimize Cost_model.naive (Catalog.uniform ~n ~card:100.0) g

let connected_sets g = (run g).Dpccp.connected_sets
let ccp_pairs g = (run g).Dpccp.ccp_pairs

let test_csg_counts () =
  (* Chains: n(n+1)/2 connected subgraphs; cliques: 2^n - 1;
     stars: n + (2^(n-1) - 1) (hub subsets plus singletons). *)
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "chain csg n=%d" n)
        (n * (n + 1) / 2)
        (connected_sets (graph_of Topology.Chain n));
      Alcotest.(check int)
        (Printf.sprintf "star csg n=%d" n)
        (n + (1 lsl (n - 1)) - 1)
        (connected_sets (graph_of Topology.Star n));
      Alcotest.(check int)
        (Printf.sprintf "clique csg n=%d" n)
        ((1 lsl n) - 1)
        (connected_sets (graph_of Topology.Clique n)))
    [ 2; 3; 5; 8; 10 ]

let backends = [ ("dense", `Dense); ("sparse", `Sparse) ]

let test_ccp_counts_closed_forms () =
  (* The optimizer folds each pair once, so the pairs it reports are
     the closed-form counts, under either backend. *)
  List.iter
    (fun (backend_name, backend) ->
      List.iter
        (fun (topo, closed_form) ->
          List.iter
            (fun n ->
              let catalog = Catalog.uniform ~n ~card:100.0 in
              let r = Dpccp.optimize ~backend Cost_model.naive catalog (graph_of topo n) in
              Alcotest.(check int)
                (Printf.sprintf "%s %s ccp n=%d" backend_name (Topology.name topo) n)
                (closed_form n) r.Dpccp.ccp_pairs)
            [ 2; 3; 5; 8; 10 ])
        [ (Topology.Chain, chain_ccp); (Topology.Star, star_ccp); (Topology.Clique, clique_ccp) ])
    backends

let test_disconnected_graph () =
  let catalog = Catalog.of_cards [| 10.0; 20.0; 30.0 |] in
  let graph = Join_graph.of_edges ~n:3 [ (0, 1, 0.1) ] in
  List.iter
    (fun (name, backend) ->
      let r = Dpccp.optimize ~backend Cost_model.naive catalog graph in
      Alcotest.(check bool) (name ^ ": no plan") true (r.Dpccp.plan = None);
      check_float (name ^ ": infinite cost") Float.infinity r.Dpccp.cost)
    backends

let test_overflowing_statistics () =
  (* Every plan's cost overflows to infinity.  An overflowed pair
     improves nothing, so there is no finite plan to return — but the
     fold still reaches every connected set, in order. *)
  let spec =
    Workload.spec ~n:3 ~topology:Topology.Chain ~model:Cost_model.naive ~mean_card:1e150
      ~variability:0.5
  in
  let catalog, graph = Workload.problem spec in
  List.iter
    (fun (name, backend) ->
      let r = Dpccp.optimize ~backend Cost_model.naive catalog graph in
      Alcotest.(check bool) (name ^ ": no plan") true (r.Dpccp.plan = None);
      check_float (name ^ ": infinite cost") Float.infinity r.Dpccp.cost;
      Alcotest.(check int) (name ^ ": every connected set reached") (3 * 4 / 2)
        r.Dpccp.connected_sets;
      Alcotest.(check int) (name ^ ": every pair folded") (chain_ccp 3) r.Dpccp.ccp_pairs)
    backends

let test_small_chain_plan () =
  let catalog = Catalog.of_cards [| 100.0; 10.0; 100.0 |] in
  let graph = Join_graph.of_edges ~n:3 [ (0, 1, 0.01); (1, 2, 0.01) ] in
  let r = Dpccp.optimize Cost_model.naive catalog graph in
  match r.Dpccp.plan with
  | None -> Alcotest.fail "expected a plan"
  | Some plan ->
    Alcotest.(check int) "no cartesian joins" 0 (Plan.cartesian_join_count graph plan);
    Test_helpers.check_float "cost equals reference" r.Dpccp.cost
      (Plan.cost Cost_model.naive catalog graph plan)

let prop_matches_dpsize_no_products =
  (* The size-driven DP without products searches the same plan space
     by a different enumeration: same optimum, and DPccp's own plan is
     product-free and re-costs to the cost it reports. *)
  QCheck2.Test.make ~count:120 ~name:"DPccp optimum = size-driven DP without products"
    ~print:problem_print (problem_gen ~max_n:9)
    (fun p ->
      let a = Dpccp.optimize p.model p.catalog p.graph in
      let b = Dpsize.optimize ~cartesian:false p.model p.catalog p.graph in
      match (a.Dpccp.plan, b.Dpsize.plan) with
      | None, None -> a.Dpccp.cost = Float.infinity
      | Some pl, Some _ ->
        Float_more.approx_equal ~rel:1e-6 a.Dpccp.cost b.Dpsize.cost
        && Plan.cartesian_join_count p.graph pl = 0
        && Float_more.approx_equal ~rel:1e-9 a.Dpccp.cost (Plan.cost p.model p.catalog p.graph pl)
      | Some _, None | None, Some _ -> false)

let prop_every_pair_connected =
  QCheck2.Test.make ~count:100
    ~name:"every enumerated pair is disjoint, connected, adjacent, and unique"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let ok = ref true in
      let seen = Hashtbl.create 256 in
      Ccp_enum.iter_ccp p.graph (fun s1 s2 ->
          if not (Relset.disjoint s1 s2) then ok := false;
          if not (Join_graph.is_connected_subset p.graph s1) then ok := false;
          if not (Join_graph.is_connected_subset p.graph s2) then ok := false;
          if not (Join_graph.crosses p.graph s1 s2) then ok := false;
          let key = (min s1 s2, max s1 s2) in
          if Hashtbl.mem seen key then ok := false;
          Hashtbl.add seen key ());
      (* Completeness: every unordered split of every connected subset
         into two connected, adjacent halves appears.  dpsize's
         joins_built counts exactly those splits. *)
      let b = Dpsize.optimize ~cartesian:false p.model p.catalog p.graph in
      !ok && Hashtbl.length seen = b.Dpsize.joins_built)

let prop_components_emitted_first =
  (* The order the DP fold relies on: when a pair is emitted, each of
     its halves is a singleton or the union of a pair emitted before. *)
  QCheck2.Test.make ~count:100 ~name:"components emitted before each pair"
    ~print:problem_print (problem_gen ~max_n:9)
    (fun p ->
      let made = Hashtbl.create 256 in
      let ok = ref true in
      let ready s = s land (s - 1) = 0 || Hashtbl.mem made s in
      Ccp_enum.iter_ccp p.graph (fun s1 s2 ->
          if not (ready s1 && ready s2) then ok := false;
          Hashtbl.replace made (s1 lor s2) ());
      !ok)

let test_enum_matches_baseline () =
  (* Both counts against baselines independent of the enumerator, on
     every paper topology, cycles included: a brute-force count of the
     subsets [Join_graph.is_connected_subset] accepts, and the joins
     [Dpsize] without products builds (exactly the csg-cmp pairs). *)
  List.iter
    (fun topo ->
      List.iter
        (fun n ->
          let g = graph_of topo n in
          let name = Topology.name topo in
          let connected = ref 0 in
          for s = 1 to (1 lsl n) - 1 do
            if Join_graph.is_connected_subset g s then incr connected
          done;
          Alcotest.(check int) (Printf.sprintf "%s csg n=%d" name n) !connected (connected_sets g);
          let dpsize =
            Dpsize.optimize ~cartesian:false Cost_model.naive (Catalog.uniform ~n ~card:100.0) g
          in
          Alcotest.(check int)
            (Printf.sprintf "%s ccp n=%d" name n)
            dpsize.Dpsize.joins_built (ccp_pairs g))
        [ 3; 5; 8; 10 ])
    [ Topology.Chain; Topology.Cycle_plus 0; Topology.Star; Topology.Clique ]

let test_enum_closed_forms () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "chain ccp n=%d" n)
        (chain_ccp n)
        (ccp_pairs (graph_of Topology.Chain n));
      Alcotest.(check int)
        (Printf.sprintf "star ccp n=%d" n)
        (star_ccp n)
        (ccp_pairs (graph_of Topology.Star n));
      Alcotest.(check int)
        (Printf.sprintf "clique ccp n=%d" n)
        (clique_ccp n)
        (ccp_pairs (graph_of Topology.Clique n)))
    [ 2; 3; 5; 8; 10 ]

(* An index-ordered path 0-1-2-3-4 (Topology.Chain wires the paper's
   interleaved order, which would obscure these adjacency checks). *)
let path n =
  Join_graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1, 0.1)))

let test_neighborhood () =
  let g = path 5 in
  let set l = List.fold_left (fun acc i -> acc lor (1 lsl i)) 0 l in
  Alcotest.(check int) "chain nbh of {2}" (set [ 1; 3 ]) (Ccp_enum.neighborhood g (set [ 2 ]) 0);
  Alcotest.(check int) "chain nbh minus forbidden" (set [ 3 ])
    (Ccp_enum.neighborhood g (set [ 2 ]) (set [ 1 ]));
  Alcotest.(check int) "chain nbh of {1,2,3}" (set [ 0; 4 ])
    (Ccp_enum.neighborhood g (set [ 1; 2; 3 ]) 0);
  let star = Join_graph.of_edges ~n:5 (List.init 4 (fun i -> (0, i + 1, 0.1))) in
  Alcotest.(check int) "star nbh of hub" (set [ 1; 2; 3; 4 ])
    (Ccp_enum.neighborhood star (set [ 0 ]) 0)

(* Satellite coverage: the Join_graph connectivity helpers the
   enumerator and the registry eligibility check lean on. *)
let test_connectivity_helpers () =
  let chain = path 5 in
  Alcotest.(check bool) "chain connected" true (Join_graph.is_connected chain);
  Alcotest.(check bool) "chain {0,2} not connected" false
    (Join_graph.is_connected_subset chain 0b101);
  Alcotest.(check bool) "chain {0,1,2} connected" true
    (Join_graph.is_connected_subset chain 0b111);
  Alcotest.(check bool) "singleton connected" true (Join_graph.is_connected_subset chain 0b100);
  Alcotest.(check bool) "empty connected" true (Join_graph.is_connected_subset chain 0);
  let split = Join_graph.of_edges ~n:4 [ (0, 1, 0.1); (2, 3, 0.1) ] in
  Alcotest.(check bool) "two components not connected" false (Join_graph.is_connected split);
  Alcotest.(check bool) "component connected" true (Join_graph.is_connected_subset split 0b0011);
  Alcotest.(check bool) "crosses within component" true (Join_graph.crosses split 0b0001 0b0010);
  Alcotest.(check bool) "no cross between components" false
    (Join_graph.crosses split 0b0011 0b1100);
  let single = Join_graph.of_edges ~n:1 [] in
  Alcotest.(check bool) "single relation connected" true (Join_graph.is_connected single)

let prop_bit_identity_vs_blitzsplit =
  (* The headline gate: on the dense backend, whenever blitzsplit's
     optimum is product-free the dpccp cost must agree to <= 8 ulps
     (the backends share Split_loop's fan recurrence, so in practice
     bitwise); when the optimum needs a Cartesian product, excluding
     products can only cost more. *)
  QCheck2.Test.make ~count:150 ~name:"dpccp vs blitzsplit: <= 8 ulps or dominated"
    ~print:problem_print (problem_gen ~max_n:9)
    (fun p ->
      if not (Join_graph.is_connected p.graph) then true
      else begin
        let b = Blitzsplit.optimize_join p.model p.catalog p.graph in
        let blitz_cost = Blitzsplit.best_cost b in
        let blitz_plan = Blitzsplit.best_plan_exn b in
        let a = Dpccp.optimize ~backend:`Dense p.model p.catalog p.graph in
        if Plan.cartesian_join_count p.graph blitz_plan = 0 then
          Float_more.within_ulps ~ulps:8 a.Dpccp.cost blitz_cost
        else a.Dpccp.cost >= blitz_cost *. (1.0 -. 1e-12)
      end)

let prop_sparse_matches_dense =
  QCheck2.Test.make ~count:120 ~name:"dpccp sparse backend = dense backend"
    ~print:problem_print (problem_gen ~max_n:9)
    (fun p ->
      let d = Dpccp.optimize ~backend:`Dense p.model p.catalog p.graph in
      let s = Dpccp.optimize ~backend:`Sparse p.model p.catalog p.graph in
      d.Dpccp.connected_sets = s.Dpccp.connected_sets
      && d.Dpccp.ccp_pairs = s.Dpccp.ccp_pairs
      &&
      match (d.Dpccp.plan, s.Dpccp.plan) with
      | None, None -> true
      | Some _, Some sp ->
        Float_more.approx_equal ~rel:1e-6 d.Dpccp.cost s.Dpccp.cost
        && (match Plan.validate ~n:(Catalog.n p.catalog) sp with Ok () -> true | Error _ -> false)
        && Plan.leaf_count sp = Catalog.n p.catalog
      | Some _, None | None, Some _ -> false)

let test_dpccp_counts_and_table () =
  (* connected_sets/ccp_pairs are the chain's closed-form counts; the
     dense backend exposes its DP table, the sparse one does not. *)
  let g = graph_of Topology.Chain 8 in
  let catalog = Catalog.uniform ~n:8 ~card:100.0 in
  let d = Dpccp.optimize ~backend:`Dense Cost_model.naive catalog g in
  Alcotest.(check int) "connected sets" (8 * 9 / 2) d.Dpccp.connected_sets;
  Alcotest.(check int) "ccp pairs" (chain_ccp 8) d.Dpccp.ccp_pairs;
  Alcotest.(check bool) "dense table exposed" true (d.Dpccp.table <> None);
  Alcotest.(check bool) "dense backend reported" true (d.Dpccp.backend = Dpccp.Dense);
  let s = Dpccp.optimize ~backend:`Sparse Cost_model.naive catalog g in
  Alcotest.(check bool) "sparse has no table" true (s.Dpccp.table = None)

(* ---- DPconv ---- *)

let rec plan_bottleneck catalog graph = function
  | Plan.Leaf _ -> 0.0
  | Plan.Join (l, r) as p ->
    Float.max
      (Plan.cardinality catalog graph p)
      (Float.max (plan_bottleneck catalog graph l) (plan_bottleneck catalog graph r))

let prop_dpconv_bottleneck_optimal =
  (* Oracle: minimize the largest intermediate over EVERY bushy plan
     (products included — dpconv's space).  The convolution driver must
     match, and its own plan must attain the reported bottleneck. *)
  QCheck2.Test.make ~count:80 ~name:"dpconv bottleneck = brute-force minimum"
    ~print:problem_print (problem_gen ~max_n:7)
    (fun p ->
      let n = Catalog.n p.catalog in
      let full = (1 lsl n) - 1 in
      let oracle =
        List.fold_left
          (fun acc pl -> Float.min acc (plan_bottleneck p.catalog p.graph pl))
          Float.infinity (Plan.enumerate full)
      in
      let r = Dpconv.optimize p.catalog p.graph in
      Float_more.approx_equal ~rel:1e-9 r.Dpconv.bottleneck oracle
      && Float_more.approx_equal ~rel:1e-9
           (plan_bottleneck p.catalog p.graph r.Dpconv.plan)
           r.Dpconv.bottleneck
      && Plan.leaf_count r.Dpconv.plan = n
      && match Plan.validate ~n r.Dpconv.plan with Ok () -> true | Error _ -> false)

let test_dpconv_disconnected () =
  (* Cartesian products are in dpconv's space: a graph dpccp refuses
     still gets a plan, and the bottleneck is the full cross product. *)
  let catalog = Catalog.of_cards [| 10.0; 20.0; 30.0 |] in
  let graph = Join_graph.of_edges ~n:3 [ (0, 1, 0.1) ] in
  let r = Dpconv.optimize catalog graph in
  Alcotest.(check int) "all leaves" 3 (Plan.leaf_count r.Dpconv.plan);
  check_float "bottleneck is final result card" (10.0 *. 20.0 *. 30.0 *. 0.1)
    r.Dpconv.bottleneck

let suite =
  [
    Alcotest.test_case "connected-subgraph counts" `Quick test_csg_counts;
    Alcotest.test_case "ccp counts match closed forms" `Quick test_ccp_counts_closed_forms;
    Alcotest.test_case "disconnected graphs have no plan" `Quick test_disconnected_graph;
    Alcotest.test_case "small chain plan" `Quick test_small_chain_plan;
    QCheck_alcotest.to_alcotest prop_matches_dpsize_no_products;
    QCheck_alcotest.to_alcotest prop_every_pair_connected;
    QCheck_alcotest.to_alcotest prop_components_emitted_first;
    Alcotest.test_case "enumerator matches baseline counts" `Quick test_enum_matches_baseline;
    Alcotest.test_case "enumerator closed forms" `Quick test_enum_closed_forms;
    Alcotest.test_case "neighborhood helper" `Quick test_neighborhood;
    Alcotest.test_case "join-graph connectivity helpers" `Quick test_connectivity_helpers;
    Alcotest.test_case "result counts and table exposure" `Quick test_dpccp_counts_and_table;
    Alcotest.test_case "dpconv handles disconnected graphs" `Quick test_dpconv_disconnected;
    QCheck_alcotest.to_alcotest prop_bit_identity_vs_blitzsplit;
    QCheck_alcotest.to_alcotest prop_sparse_matches_dense;
    Alcotest.test_case "overflowing statistics have no plan" `Quick test_overflowing_statistics;
    QCheck_alcotest.to_alcotest prop_dpconv_bottleneck_optimal;
  ]
