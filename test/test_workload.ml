(* The appendix benchmark-workload generator. *)

open Test_helpers
module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology

let check_float = Test_helpers.check_float

let mk ?(n = 15) ?(topology = Topology.Chain) ?(model = Cost_model.naive) ?(mean_card = 100.0)
    ?(variability = 0.5) () =
  Workload.spec ~n ~topology ~model ~mean_card ~variability

let test_catalog_ladder () =
  let spec = mk ~n:5 ~mean_card:100.0 ~variability:1.0 () in
  let catalog = Workload.catalog spec in
  (* |R_0| = mu^(1-v) = 1; |R_4| = mu^(1+v) = 10000; constant ratio. *)
  check_float "R0" 1.0 (Catalog.card catalog 0);
  check_float "R4" 10000.0 (Catalog.card catalog 4);
  let ratio = Catalog.card catalog 1 /. Catalog.card catalog 0 in
  for i = 2 to 4 do
    check_float ~rel:1e-9 "constant ratio" ratio
      (Catalog.card catalog i /. Catalog.card catalog (i - 1))
  done

let test_zero_variability () =
  let catalog = Workload.catalog (mk ~n:7 ~mean_card:464.0 ~variability:0.0 ()) in
  for i = 0 to 6 do
    check_float "all equal" 464.0 (Catalog.card catalog i)
  done

let test_axes () =
  let mc = Workload.mean_card_axis () in
  Alcotest.(check int) "10 mean-card points" 10 (Array.length mc);
  check_float "first" 1.0 mc.(0);
  check_float ~rel:1e-3 "second (4.64)" 4.6416 mc.(1);
  check_float ~rel:1e-3 "third (21.5)" 21.544 mc.(2);
  check_float ~rel:1e-6 "fourth (100)" 100.0 mc.(3);
  check_float ~rel:1e-6 "last (1e6)" 1e6 mc.(9);
  let v = Workload.variability_axis () in
  Alcotest.(check int) "4 variability points" 4 (Array.length v);
  check_float "v0" 0.0 v.(0);
  check_float "v3" 1.0 v.(3)

let test_grid_size_and_order () =
  let specs =
    Workload.grid ~n:15
      ~models:[ Cost_model.naive; Cost_model.sort_merge ]
      ~topologies:[ Topology.Chain; Topology.Star ]
      ~mean_cards:[| 1.0; 100.0 |] ~variabilities:[| 0.0; 1.0 |]
  in
  Alcotest.(check int) "2*2*2*2 specs" 16 (List.length specs);
  (* Row-major: model outermost, variability innermost. *)
  let first = List.hd specs in
  Alcotest.(check string) "first model" "k0" first.Workload.model.Cost_model.name;
  check_float "first variability" 0.0 first.Workload.variability;
  let second = List.nth specs 1 in
  check_float "second variability" 1.0 second.Workload.variability

let test_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Workload.spec: need at least two relations")
    (fun () -> ignore (mk ~n:1 ()));
  Alcotest.check_raises "bad variability"
    (Invalid_argument "Workload.spec: variability must lie in [0, 1]") (fun () ->
      ignore (mk ~variability:1.5 ()));
  Alcotest.check_raises "bad mean" (Invalid_argument "Workload.spec: mean_card must be positive")
    (fun () -> ignore (mk ~mean_card:0.0 ()))

let prop_geomean_is_mu =
  QCheck2.Test.make ~count:200 ~name:"catalog geometric mean equals the requested mu"
    QCheck2.Gen.(
      tup3 (int_range 2 18) (float_range 1.0 1e5) (float_range 0.0 1.0))
    (fun (n, mean_card, variability) ->
      let spec = mk ~n ~mean_card ~variability () in
      let catalog = Workload.catalog spec in
      Blitz_util.Float_more.approx_equal ~rel:1e-6 mean_card
        (Catalog.geometric_mean_card catalog))

let prop_result_card_is_mu =
  QCheck2.Test.make ~count:100 ~name:"full-query result cardinality equals mu on the grid"
    QCheck2.Gen.(
      tup4 (int_range 9 15) (oneofl Topology.all_paper) (float_range 1.0 1e4)
        (float_range 0.0 1.0))
    (fun (n, topology, mean_card, variability) ->
      let spec = mk ~n ~topology ~mean_card ~variability () in
      let catalog, graph = Workload.problem spec in
      let result = Join_graph.join_cardinality catalog graph (Relset.full n) in
      Blitz_util.Float_more.approx_equal ~rel:1e-6 mean_card result)

let prop_variability_recovered =
  QCheck2.Test.make ~count:100 ~name:"Catalog.variability recovers the spec's parameter"
    QCheck2.Gen.(tup2 (int_range 3 15) (float_range 0.0 1.0))
    (fun (n, variability) ->
      let spec = mk ~n ~mean_card:1000.0 ~variability () in
      let catalog = Workload.catalog spec in
      Blitz_util.Float_more.approx_equal ~rel:1e-6 ~abs:1e-9 variability
        (Catalog.variability catalog))

(* The appendix formulas as written, the selectivity factor evaluated
   per edge endpoint: Workload.problem must store exactly these bits. *)
let test_problem_bits_match_formula () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun n ->
      Workload.grid ~n ~models:[ Cost_model.naive ] ~topologies:Topology.all_paper
        ~mean_cards:(Workload.mean_card_axis ()) ~variabilities:(Workload.variability_axis ())
      |> List.iter (fun spec ->
             let catalog, graph = Workload.problem spec in
             let mu = spec.Workload.mean_card and v = spec.Workload.variability in
             let card i =
               mu ** (1.0 -. v +. (2.0 *. v *. float_of_int i /. float_of_int (n - 1)))
             in
             let edges = Topology.edge_list spec.Workload.topology ~n in
             let deg = Array.make n 0 in
             List.iter (fun (i, j) -> deg.(i) <- deg.(i) + 1; deg.(j) <- deg.(j) + 1) edges;
             let endpoint i = card i ** (-1.0 /. float_of_int deg.(i)) in
             let mu_factor = mu ** (1.0 /. float_of_int (List.length edges)) in
             let where = Workload.describe spec in
             for i = 0 to n - 1 do
               if bits (Catalog.card catalog i) <> bits (card i) then
                 Alcotest.failf "%s: card of R%d" where i
             done;
             Alcotest.(check int) (where ^ ": edge count") (List.length edges)
               (Join_graph.edge_count graph);
             List.iter
               (fun (i, j) ->
                 let want = Float.min (mu_factor *. endpoint i *. endpoint j) 1.0 in
                 if bits (Join_graph.selectivity graph i j) <> bits want then
                   Alcotest.failf "%s: selectivity of (%d, %d)" where i j)
               edges))
    [ 9; 12; 15 ]

let suite =
  [
    Alcotest.test_case "cardinality ladder" `Quick test_catalog_ladder;
    Alcotest.test_case "zero variability" `Quick test_zero_variability;
    Alcotest.test_case "grid axes (paper sample points)" `Quick test_axes;
    Alcotest.test_case "grid size and order" `Quick test_grid_size_and_order;
    Alcotest.test_case "spec validation" `Quick test_validation;
    Alcotest.test_case "problem bits = the per-endpoint formula" `Quick
      test_problem_bits_match_formula;
    QCheck_alcotest.to_alcotest prop_geomean_is_mu;
    QCheck_alcotest.to_alcotest prop_result_card_is_mu;
    QCheck_alcotest.to_alcotest prop_variability_recovered;
  ]
