(* Plan trees: structure, validation, costing, annotation, printing. *)

open Test_helpers

let names = Catalog.names abcd_catalog
let fig3 = figure3_graph ~sab:0.1 ~sac:0.2 ~sbc:0.3 ~sad:0.4
let check_float = Test_helpers.check_float

let bushy = Plan.(Join (Join (Leaf 0, Leaf 3), Join (Leaf 1, Leaf 2)))
let vine = Plan.(Join (Join (Join (Leaf 0, Leaf 1), Leaf 2), Leaf 3))

let test_structure () =
  Alcotest.(check int) "relations" 0b1111 (Plan.relations bushy);
  Alcotest.(check int) "leaf_count" 4 (Plan.leaf_count bushy);
  Alcotest.(check bool) "bushy not left-deep" false (Plan.is_left_deep bushy);
  Alcotest.(check bool) "vine left-deep" true (Plan.is_left_deep vine);
  Alcotest.(check bool) "leaf left-deep" true (Plan.is_left_deep (Plan.Leaf 2))

let test_validate () =
  Alcotest.(check bool) "valid" true (Result.is_ok (Plan.validate ~n:4 bushy));
  Alcotest.(check bool) "out of range" true
    (Result.is_error (Plan.validate ~n:3 bushy));
  let dup = Plan.(Join (Leaf 0, Leaf 0)) in
  Alcotest.(check bool) "duplicate leaf" true (Result.is_error (Plan.validate ~n:4 dup));
  Alcotest.check_raises "relations raises on duplicates"
    (Invalid_argument "Plan.relations: relation 0 appears twice") (fun () ->
      ignore (Plan.relations dup))

let test_normalize () =
  let flipped = Plan.(Join (Join (Leaf 2, Leaf 1), Join (Leaf 3, Leaf 0))) in
  let normalized = Plan.normalize flipped in
  Alcotest.(check bool) "normalized form" true
    (Plan.equal normalized Plan.(Join (Join (Leaf 0, Leaf 3), Join (Leaf 1, Leaf 2))));
  Alcotest.(check bool) "idempotent" true (Plan.equal normalized (Plan.normalize normalized))

let test_enumerate_counts () =
  List.iter
    (fun (n, count) ->
      let plans = Plan.enumerate (Relset.full n) in
      Alcotest.(check int) (Printf.sprintf "plan count n=%d" n) count (List.length plans);
      (* All distinct after normalization, all valid. *)
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun p ->
          Alcotest.(check bool) "valid" true (Result.is_ok (Plan.validate ~n p));
          let key = Plan.to_compact_string p in
          Alcotest.(check bool) "distinct" false (Hashtbl.mem tbl key);
          Hashtbl.add tbl key ())
        plans)
    [ (1, 1); (2, 1); (3, 3); (4, 15); (5, 105) ]

let test_cost_reference () =
  (* Table 1 by hand: the bushy optimum costs 241000 under kappa_0 with
     no predicates. *)
  let empty = Join_graph.no_predicates ~n:4 in
  check_float "bushy product cost" 241000.0
    (Plan.cost Cost_model.naive abcd_catalog empty bushy);
  check_float "cardinality" 240000.0 (Plan.cardinality abcd_catalog empty bushy);
  (* With Figure 3 predicates, cardinality = 240000 * 0.1*0.2*0.3*0.4. *)
  check_float "cardinality with predicates" (240000.0 *. 0.0024)
    (Plan.cardinality abcd_catalog fig3 bushy)

let test_cartesian_join_count () =
  (* In bushy = (A x D) x (B x C) every join is covered by an edge of
     Figure 3 (AD, BC, and AB/AC across the top). *)
  Alcotest.(check int) "no products in bushy" 0 (Plan.cartesian_join_count fig3 bushy);
  (* (B x D) has no predicate: exactly one Cartesian product. *)
  Alcotest.(check int) "one product" 1
    (Plan.cartesian_join_count fig3 Plan.(Join (Join (Leaf 1, Leaf 3), Join (Leaf 0, Leaf 2))));
  Alcotest.(check int) "no products in vine" 0 (Plan.cartesian_join_count fig3 vine);
  let empty = Join_graph.no_predicates ~n:4 in
  Alcotest.(check int) "all products without predicates" 3
    (Plan.cartesian_join_count empty bushy)

let test_annotate () =
  let algorithms = [ ("sm", Cost_model.sort_merge); ("dnl", Cost_model.kdnl) ] in
  let annotated = Plan.annotate ~algorithms abcd_catalog fig3 bushy in
  (* Total = sum of per-join minima; recompute by hand via Plan.cost of
     each model is NOT comparable (different models per join), so check
     internal consistency instead. *)
  let rec collect = function
    | Plan.Ann_leaf _ -> []
    | Plan.Ann_join j -> ((j.algorithm, j.join_cost) :: collect j.lhs) @ collect j.rhs
  in
  let joins = collect annotated in
  Alcotest.(check int) "three joins annotated" 3 (List.length joins);
  List.iter
    (fun (alg, cost) ->
      Alcotest.(check bool) "algorithm named" true (alg = "sm" || alg = "dnl");
      Alcotest.(check bool) "cost nonnegative" true (cost >= 0.0))
    joins;
  let total = match annotated with Plan.Ann_join j -> j.subtree_cost | Plan.Ann_leaf _ -> 0.0 in
  (* The min-of cost model must agree with the annotation total. *)
  let min_model = Cost_model.min_of Cost_model.sort_merge Cost_model.kdnl in
  check_float "matches min-of model" (Plan.cost min_model abcd_catalog fig3 bushy) total;
  Alcotest.check_raises "empty algorithms" (Invalid_argument "Plan.annotate: empty algorithm list")
    (fun () -> ignore (Plan.annotate ~algorithms:[] abcd_catalog fig3 bushy))

let test_printing_roundtrip () =
  Alcotest.(check string) "compact" "((A x D) x (B x C))" (Plan.to_compact_string ~names bushy);
  Alcotest.(check string) "leaf" "C" (Plan.to_compact_string ~names (Plan.Leaf 2));
  (match Plan.of_compact_string ~names "((A x D) x (B x C))" with
  | Ok p -> Alcotest.(check bool) "parse round-trip" true (Plan.equal p bushy)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "unknown name" true
    (Result.is_error (Plan.of_compact_string ~names "(A x Z)"));
  Alcotest.(check bool) "trailing garbage" true
    (Result.is_error (Plan.of_compact_string ~names "(A x B) C"));
  Alcotest.(check bool) "unbalanced" true (Result.is_error (Plan.of_compact_string ~names "(A x B"))

let test_map_leaves () =
  let mapped = Plan.map_leaves (fun i -> 3 - i) bushy in
  Alcotest.(check bool) "leaves remapped" true
    (Plan.equal mapped Plan.(Join (Join (Leaf 3, Leaf 0), Join (Leaf 2, Leaf 1))))

let prop_roundtrip_printing =
  QCheck2.Test.make ~count:300 ~name:"compact printing round-trips on random plans"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2 + Rng.int rng 8 in
      let plan = Blitz_baselines.Transform.random_bushy rng (Relset.full n) in
      let nm = Array.init n (Printf.sprintf "T%d") in
      match Plan.of_compact_string ~names:nm (Plan.to_compact_string ~names:nm plan) with
      | Ok p -> Plan.equal p plan
      | Error _ -> false)

let prop_cost_commutative_models =
  QCheck2.Test.make ~count:200
    ~name:"commuting a join preserves cost under the symmetric paper models"
    ~print:problem_print (problem_gen ~max_n:7)
    (fun p ->
      let rng = Rng.create ~seed:(p.seed + 3) in
      let plan = Blitz_baselines.Transform.random_bushy rng (Relset.full (Catalog.n p.catalog)) in
      let rec flip_all = function
        | Plan.Leaf _ as l -> l
        | Plan.Join (l, r) -> Plan.Join (flip_all r, flip_all l)
      in
      Blitz_util.Float_more.approx_equal ~rel:1e-9
        (Plan.cost p.model p.catalog p.graph plan)
        (Plan.cost p.model p.catalog p.graph (flip_all plan)))

let suite =
  [
    Alcotest.test_case "structure metrics" `Quick test_structure;
    Alcotest.test_case "validation" `Quick test_validate;
    Alcotest.test_case "normalization" `Quick test_normalize;
    Alcotest.test_case "enumeration counts (2n-3)!!" `Quick test_enumerate_counts;
    Alcotest.test_case "reference costing" `Quick test_cost_reference;
    Alcotest.test_case "cartesian join counting" `Quick test_cartesian_join_count;
    Alcotest.test_case "algorithm annotation (Section 6.5)" `Quick test_annotate;
    Alcotest.test_case "printing and parsing" `Quick test_printing_roundtrip;
    Alcotest.test_case "map_leaves" `Quick test_map_leaves;
    QCheck_alcotest.to_alcotest prop_roundtrip_printing;
    QCheck_alcotest.to_alcotest prop_cost_commutative_models;
  ]
