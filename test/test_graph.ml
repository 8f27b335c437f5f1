(* Join graph, topology wiring and the appendix selectivity formula. *)

open Test_helpers

let check_float = Test_helpers.check_float

let fig3 = figure3_graph ~sab:0.1 ~sac:0.2 ~sbc:0.3 ~sad:0.4

let test_basic_accessors () =
  Alcotest.(check int) "n" 4 (Join_graph.n fig3);
  Alcotest.(check int) "edge_count" 4 (Join_graph.edge_count fig3);
  check_float "sel AB" 0.1 (Join_graph.selectivity fig3 0 1);
  check_float "sel BA (symmetric)" 0.1 (Join_graph.selectivity fig3 1 0);
  check_float "sel BD (absent)" 1.0 (Join_graph.selectivity fig3 1 3);
  Alcotest.(check bool) "has_edge AD" true (Join_graph.has_edge fig3 0 3);
  Alcotest.(check bool) "no edge CD" false (Join_graph.has_edge fig3 2 3);
  Alcotest.(check int) "degree A" 3 (Join_graph.degree fig3 0);
  Alcotest.(check int) "degree D" 1 (Join_graph.degree fig3 3);
  Alcotest.(check int) "neighbors of A" 0b1110 (Join_graph.neighbors fig3 0)

let test_validation () =
  Alcotest.check_raises "self edge" (Invalid_argument "Join_graph: self-edge query") (fun () ->
      ignore (Join_graph.of_edges ~n:3 [ (1, 1, 0.5) ]));
  Alcotest.check_raises "duplicate edge"
    (Invalid_argument "Join_graph.of_edges: duplicate edge (1, 0)") (fun () ->
      ignore (Join_graph.of_edges ~n:3 [ (0, 1, 0.5); (1, 0, 0.2) ]));
  Alcotest.check_raises "bad selectivity"
    (Invalid_argument "Join_graph.of_edges: invalid selectivity 0 on (0, 1)") (fun () ->
      ignore (Join_graph.of_edges ~n:3 [ (0, 1, 0.0) ]))

let test_connectivity () =
  Alcotest.(check bool) "fig3 connected" true (Join_graph.is_connected fig3);
  Alcotest.(check bool) "subset {B,D} disconnected" false
    (Join_graph.is_connected_subset fig3 (Relset.of_list [ 1; 3 ]));
  Alcotest.(check bool) "subset {A,B,C} connected" true
    (Join_graph.is_connected_subset fig3 (Relset.of_list [ 0; 1; 2 ]));
  Alcotest.(check bool) "singleton connected" true
    (Join_graph.is_connected_subset fig3 (Relset.singleton 3));
  Alcotest.(check bool) "empty connected" true (Join_graph.is_connected_subset fig3 Relset.empty);
  let disconnected = Join_graph.of_edges ~n:4 [ (0, 1, 0.5) ] in
  Alcotest.(check bool) "missing edges disconnect" false (Join_graph.is_connected disconnected);
  Alcotest.(check bool) "crosses yes" true
    (Join_graph.crosses fig3 (Relset.of_list [ 0 ]) (Relset.of_list [ 1; 2 ]));
  Alcotest.(check bool) "crosses no" false
    (Join_graph.crosses fig3 (Relset.of_list [ 1 ]) (Relset.of_list [ 3 ]))

(* Section 5.3 worked example: with S = {A,B,C}, U = {A}, the fan of S
   is {AB, AC}. *)
let test_fan_paper_example () =
  let s = Relset.of_list [ 0; 1; 2 ] in
  check_float "pi_fan {A,B,C} = sel(AB)*sel(AC)" (0.1 *. 0.2) (Join_graph.pi_fan fig3 s);
  check_float "pi_span {A},{B,C}" (0.1 *. 0.2)
    (Join_graph.pi_span fig3 (Relset.singleton 0) (Relset.of_list [ 1; 2 ]));
  check_float "pi_induced {A,B,C}" (0.1 *. 0.2 *. 0.3) (Join_graph.pi_induced fig3 s);
  check_float "join_cardinality {A,B,C}" (10.0 *. 20.0 *. 30.0 *. 0.1 *. 0.2 *. 0.3)
    (Join_graph.join_cardinality abcd_catalog fig3 s)

let test_fan_recurrence_equation10 () =
  (* Pi_fan(S) = Pi_fan(U+W) * Pi_fan(U+Z) for S = {A,B,C}, W = {B}, Z = {C}. *)
  let fan s = Join_graph.pi_fan fig3 (Relset.of_list s) in
  check_float "Equation 10" (fan [ 0; 1; 2 ]) (fan [ 0; 1 ] *. fan [ 0; 2 ])

(* ---- Topology wiring ---- *)

let test_chain_order_paper () =
  (* Appendix: R0-R8-R1-R9-R2-R10-R3-R11-R4-R12-R5-R13-R6-R14-R7. *)
  let order = [| 0; 8; 1; 9; 2; 10; 3; 11; 4; 12; 5; 13; 6; 14; 7 |] in
  Alcotest.(check (list (pair int int)))
    "n=15 interleave"
    (List.init 14 (fun i -> (order.(i), order.(i + 1))))
    Blitz_graph.Topology.(edge_list Chain ~n:15)

let norm_edges l = List.sort compare (List.map (fun (i, j) -> (min i j, max i j)) l)

let test_topology_edges () =
  let module T = Blitz_graph.Topology in
  Alcotest.(check int) "chain n=15 edge count" 14 (List.length (T.edge_list T.Chain ~n:15));
  Alcotest.(check int) "cycle+3 n=15 edge count" 18 (List.length (T.edge_list (T.Cycle_plus 3) ~n:15));
  Alcotest.(check int) "star n=15 edge count" 14 (List.length (T.edge_list T.Star ~n:15));
  Alcotest.(check int) "clique n=15 edge count" 105 (List.length (T.edge_list T.Clique ~n:15));
  (* Paper's cycle+3 cross edges: R0-R7 (cycle closure), R8-R14, R1-R6, R9-R13. *)
  let edges = norm_edges (T.edge_list (T.Cycle_plus 3) ~n:15) in
  List.iter
    (fun e ->
      Alcotest.(check bool) (Printf.sprintf "edge (%d,%d) present" (fst e) (snd e)) true
        (List.mem e edges))
    [ (0, 7); (8, 14); (1, 6); (9, 13) ];
  (* Star hub is R14. *)
  List.iter
    (fun (i, j) -> Alcotest.(check int) "star hub" 14 (max i j))
    (T.edge_list T.Star ~n:15);
  Alcotest.(check int) "grid 3x5 edge count" 22 (List.length (T.edge_list (T.Grid (3, 5)) ~n:15));
  Alcotest.check_raises "cycle+3 too small"
    (Invalid_argument "Topology.edge_list: cycle+3 needs at least 9 relations") (fun () ->
      ignore (T.edge_list (T.Cycle_plus 3) ~n:8));
  Alcotest.check_raises "grid mismatch"
    (Invalid_argument "Topology.edge_list: grid 2x3 does not cover 15 relations") (fun () ->
      ignore (T.edge_list (T.Grid (2, 3)) ~n:15))

let test_topology_parse () =
  let module T = Blitz_graph.Topology in
  Alcotest.(check bool) "chain" true (T.of_string "chain" = Ok T.Chain);
  Alcotest.(check bool) "cycle+3" true (T.of_string "cycle+3" = Ok (T.Cycle_plus 3));
  Alcotest.(check bool) "star" true (T.of_string "star" = Ok T.Star);
  Alcotest.(check bool) "clique" true (T.of_string "clique" = Ok T.Clique);
  Alcotest.(check bool) "grid" true (T.of_string "grid:3x5" = Ok (T.Grid (3, 5)));
  Alcotest.(check bool) "garbage rejected" true (Result.is_error (T.of_string "pentagram"));
  List.iter
    (fun t -> Alcotest.(check bool) (T.name t) true (T.of_string (T.name t) = Ok t))
    (T.all_paper @ [ T.Grid (3, 5); T.Cycle_plus 7 ])

(* Appendix claim: "these selectivities yield a query result cardinality
   of mu" — for every topology and any cardinality ladder, as long as no
   edge's formula value, mu^(1/k) |R_i|^(-1/deg i) |R_j|^(-1/deg j),
   exceeds 1.  One that does is clamped to 1 by design (a selectivity
   above 1 is no selectivity), and the result then falls short of mu by
   exactly the clamped factors.  Either way every edge is checked. *)
let check_appendix_selectivities ~seed ~n topo =
  let module T = Blitz_graph.Topology in
  let rng = Rng.create ~seed in
  let catalog = random_catalog rng ~n ~lo:2.0 ~hi:1e5 in
  let mu = Catalog.geometric_mean_card catalog in
  let edges = T.edge_list topo ~n in
  let graph = T.assign_selectivities catalog edges ~result_card:mu in
  let deg = Array.make n 0 in
  List.iter
    (fun (i, j) ->
      deg.(i) <- deg.(i) + 1;
      deg.(j) <- deg.(j) + 1)
    edges;
  let k = float_of_int (List.length edges) in
  let formula (i, j) =
    (mu ** (1.0 /. k))
    *. (Catalog.card catalog i ** (-1.0 /. float_of_int deg.(i)))
    *. (Catalog.card catalog j ** (-1.0 /. float_of_int deg.(j)))
  in
  let shortfall =
    List.fold_left
      (fun acc (i, j) ->
        let raw = formula (i, j) and sel = Join_graph.selectivity graph i j in
        if raw > 1.0 then begin
          if sel <> 1.0 then
            QCheck2.Test.fail_reportf "edge (%d, %d): formula %g > 1, selectivity %g, not 1" i j
              raw sel;
          acc *. raw
        end
        else begin
          if not (Blitz_util.Float_more.approx_equal ~rel:1e-9 raw sel) then
            QCheck2.Test.fail_reportf "edge (%d, %d): selectivity %g, formula %g" i j sel raw;
          acc
        end)
      1.0 edges
  in
  let result = Join_graph.join_cardinality catalog graph (Relset.full n) in
  if not (Blitz_util.Float_more.approx_equal ~rel:1e-6 (mu /. shortfall) result) then
    QCheck2.Test.fail_reportf "result %g, expected mu %g over clamped factors %g" result mu
      shortfall;
  shortfall

let prop_selectivity_formula_result_card =
  QCheck2.Test.make ~count:200 ~name:"appendix selectivities give result cardinality mu"
    ~print:(fun (seed, (n, topo)) ->
      Printf.sprintf "seed=%d n=%d %s" seed n (Blitz_graph.Topology.name topo))
    QCheck2.Gen.(
      pair (int_bound 100000)
        (pair (int_range 9 15) (oneofl Blitz_graph.Topology.all_paper)))
    (fun (seed, (n, topo)) ->
      ignore (check_appendix_selectivities ~seed ~n topo);
      true)

(* The input QCHECK_SEED=118 once drew: a chain whose formula puts an
   edge above 1, so the result is below mu. *)
let test_clamped_appendix_chain () =
  let shortfall = check_appendix_selectivities ~seed:2775 ~n:9 Blitz_graph.Topology.Chain in
  Alcotest.(check bool) (Printf.sprintf "clamped factors %g > 1" shortfall) true (shortfall > 1.0)

let prop_pi_span_multiplicative =
  QCheck2.Test.make ~count:200 ~name:"pi_span(U, W+Z) = pi_span(U,W) * pi_span(U,Z)"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 8 in
      let g = random_graph rng ~n ~edge_prob:0.5 ~sel_lo:0.001 ~sel_hi:1.0 in
      (* Pick three disjoint nonempty sets. *)
      let u = Relset.of_list [ 0; 1 ] in
      let w = Relset.of_list [ 2; 3; 4 ] in
      let z = Relset.of_list [ 5; 6; 7 ] in
      Blitz_util.Float_more.approx_equal ~rel:1e-9
        (Join_graph.pi_span g u (Relset.union w z))
        (Join_graph.pi_span g u w *. Join_graph.pi_span g u z))

let suite =
  [
    Alcotest.test_case "accessors" `Quick test_basic_accessors;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "connectivity" `Quick test_connectivity;
    Alcotest.test_case "fan (Section 5.3 example)" `Quick test_fan_paper_example;
    Alcotest.test_case "Equation 10" `Quick test_fan_recurrence_equation10;
    Alcotest.test_case "appendix chain order (n=15)" `Quick test_chain_order_paper;
    Alcotest.test_case "topology edge lists" `Quick test_topology_edges;
    Alcotest.test_case "topology parsing round-trips" `Quick test_topology_parse;
    QCheck_alcotest.to_alcotest prop_selectivity_formula_result_card;
    QCheck_alcotest.to_alcotest prop_pi_span_multiplicative;
    Alcotest.test_case "appendix selectivities clamped above 1" `Quick
      test_clamped_appendix_chain;
  ]
