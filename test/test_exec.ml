(* The execution-engine substrate: operators agree, plans run, estimates
   track actuals. *)

open Test_helpers
module Table = Blitz_exec.Table
module Datagen = Blitz_exec.Datagen
module Operators = Blitz_exec.Operators
module Executor = Blitz_exec.Executor

(* ---- Table ---- *)

let test_table_basics () =
  let t =
    Table.create ~name:"t" ~columns:[| "id"; "x" |] ~rows:[| [| 0; 5 |]; [| 1; 7 |] |]
  in
  Alcotest.(check int) "rows" 2 (Table.n_rows t);
  Alcotest.(check int) "cols" 2 (Table.n_columns t);
  Alcotest.(check (array string)) "columns" [| "id"; "x" |] (Table.columns t);
  Alcotest.(check int) "get" 7 (Table.get t ~row:1 ~col:1);
  Alcotest.(check (array int)) "row copy" [| 0; 5 |] (Table.row t 0)

let test_table_validation () =
  Alcotest.check_raises "duplicate column" (Invalid_argument "Table.create: duplicate column \"x\"")
    (fun () -> ignore (Table.create ~name:"t" ~columns:[| "x"; "x" |] ~rows:[||]));
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Table.create: row 0 has width 1, expected 2") (fun () ->
      ignore (Table.create ~name:"t" ~columns:[| "a"; "b" |] ~rows:[| [| 1 |] |]))

(* ---- Operators ---- *)

(* Order-insensitive row-multiset equality: the operators' cross-check. *)
let same_multiset a b = List.sort compare (Array.to_list a) = List.sort compare (Array.to_list b)

let join_fixture () =
  let left = [| [| 1; 10 |]; [| 2; 20 |]; [| 2; 21 |]; [| 3; 30 |] |] in
  let right = [| [| 2; 200 |]; [| 3; 300 |]; [| 3; 301 |]; [| 4; 400 |] |] in
  let keys = [ { Operators.left_col = 0; right_col = 0 } ] in
  (left, right, keys)

let test_operators_agree () =
  let left, right, keys = join_fixture () in
  let nl = Operators.nested_loop_join ~left ~right ~keys in
  let h = Operators.hash_join ~left ~right ~keys in
  let sm = Operators.sort_merge_join ~left ~right ~keys in
  Alcotest.(check int) "match count" 4 (Array.length nl);
  Alcotest.(check bool) "hash = nested loop" true (same_multiset nl h);
  Alcotest.(check bool) "sort-merge = nested loop" true (same_multiset nl sm)

let test_cartesian_product_operator () =
  let left = [| [| 1 |]; [| 2 |] |] and right = [| [| 10 |]; [| 20 |]; [| 30 |] |] in
  List.iter
    (fun (name, join) ->
      let out = join ~left ~right ~keys:[] in
      Alcotest.(check int) (name ^ " cross size") 6 (Array.length out))
    [
      ("nested-loop", Operators.nested_loop_join);
      ("hash", Operators.hash_join);
      ("sort-merge", Operators.sort_merge_join);
    ]

let prop_operators_agree_random =
  QCheck2.Test.make ~count:150 ~name:"the three join operators return the same multiset"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let rows count width domain =
        Array.init count (fun _ -> Array.init width (fun _ -> Rng.int rng domain))
      in
      let left = rows (1 + Rng.int rng 40) 2 5 in
      let right = rows (1 + Rng.int rng 40) 2 5 in
      let keys =
        if Rng.bool rng then [ { Operators.left_col = 0; right_col = 0 } ]
        else
          [ { Operators.left_col = 0; right_col = 0 }; { Operators.left_col = 1; right_col = 1 } ]
      in
      let nl = Operators.nested_loop_join ~left ~right ~keys in
      same_multiset nl (Operators.hash_join ~left ~right ~keys)
      && same_multiset nl (Operators.sort_merge_join ~left ~right ~keys))

(* ---- Datagen ---- *)

let test_datagen_shapes () =
  let catalog = Catalog.of_list [ ("r", 100.0); ("s", 50.0); ("t", 20.0) ] in
  let graph = Join_graph.of_edges ~n:3 [ (0, 1, 0.01); (1, 2, 0.05) ] in
  let rng = Rng.create ~seed:42 in
  let data = Datagen.generate ~rng catalog graph in
  Alcotest.(check int) "r rows" 100 (Table.n_rows data.Datagen.tables.(0));
  Alcotest.(check int) "s rows" 50 (Table.n_rows data.Datagen.tables.(1));
  Alcotest.(check int) "t rows" 20 (Table.n_rows data.Datagen.tables.(2));
  (* s participates in both predicates: id + two join columns. *)
  Alcotest.(check int) "s columns" 3 (Table.n_columns data.Datagen.tables.(1));
  Alcotest.(check string) "shared attribute present" (Datagen.edge_attribute 0 1)
    (Table.columns data.Datagen.tables.(0)).(1);
  Test_helpers.check_float "realized selectivity 0.01" 0.01
    (Datagen.realized_selectivity graph 0 1);
  (* max_rows guard *)
  let big = Catalog.of_list [ ("huge", 1e7) ] in
  Alcotest.check_raises "row cap"
    (Invalid_argument "Datagen.generate: relation huge needs 10000000 rows (max_rows = 500000)")
    (fun () ->
      ignore (Datagen.generate ~rng big (Join_graph.no_predicates ~n:1)))

let test_realized_statistics () =
  let catalog = Catalog.of_list [ ("r", 100.4); ("s", 50.0) ] in
  let graph = Join_graph.of_edges ~n:2 [ (0, 1, 0.0301) ] in
  let rng = Rng.create ~seed:1 in
  let data = Datagen.generate ~rng catalog graph in
  let rc = Datagen.realized_catalog data in
  Test_helpers.check_float "rounded card" 100.0 (Catalog.card rc 0);
  let rg = Datagen.realized_graph data in
  (* 1/0.0301 rounds to 33 -> realized 1/33. *)
  Test_helpers.check_float ~rel:1e-9 "realized selectivity" (1.0 /. 33.0)
    (Join_graph.selectivity rg 0 1)

(* ---- Executor ---- *)

let chain_dataset ?(seed = 7) () =
  let catalog = Catalog.of_list [ ("r", 200.0); ("s", 100.0); ("t", 50.0) ] in
  let graph = Join_graph.of_edges ~n:3 [ (0, 1, 0.02); (1, 2, 0.05) ] in
  let rng = Rng.create ~seed in
  (Datagen.generate ~rng catalog graph, catalog, graph)

let test_executor_algorithms_agree () =
  let data, _, _ = chain_dataset () in
  let plan = Plan.(Join (Join (Leaf 0, Leaf 1), Leaf 2)) in
  let counts =
    List.map
      (fun algorithm -> (Executor.run ~algorithm data plan).Executor.rows)
      [ Executor.Nested_loop; Executor.Hash; Executor.Sort_merge ]
  in
  match counts with
  | [ a; b; c ] ->
    Alcotest.(check int) "hash = nl" a b;
    Alcotest.(check int) "sm = nl" a c
  | _ -> assert false

let test_executor_plan_shape_invariance () =
  (* Different join orders of the same query produce the same result
     cardinality. *)
  let data, _, _ = chain_dataset () in
  let p1 = Plan.(Join (Join (Leaf 0, Leaf 1), Leaf 2)) in
  let p2 = Plan.(Join (Leaf 0, Join (Leaf 1, Leaf 2))) in
  let p3 = Plan.(Join (Join (Leaf 0, Leaf 2), Leaf 1)) in
  let rows p = (Executor.run data p).Executor.rows in
  Alcotest.(check int) "order invariant (right-deep)" (rows p1) (rows p2);
  Alcotest.(check int) "order invariant (product first)" (rows p1) (rows p3)

let test_executor_trace () =
  let data, _, _ = chain_dataset () in
  let plan = Plan.(Join (Join (Leaf 0, Leaf 2), Leaf 1)) in
  let result = Executor.run data plan in
  Alcotest.(check int) "two joins traced" 2 (List.length result.Executor.trace);
  (match result.Executor.trace with
  | [ first; second ] ->
    Alcotest.(check bool) "first join is the Cartesian product" true first.Executor.cartesian;
    Alcotest.(check int) "product cardinality" (200 * 50) first.Executor.actual_rows;
    Alcotest.(check bool) "second applies predicates" false second.Executor.cartesian;
    Alcotest.(check int) "final set" 0b111 second.Executor.set
  | _ -> Alcotest.fail "expected two trace entries");
  (* Guard on runaway products. *)
  let big_catalog = Catalog.of_list [ ("a", 3000.0); ("b", 3000.0) ] in
  let big_graph = Join_graph.no_predicates ~n:2 in
  let rng = Rng.create ~seed:3 in
  let big = Datagen.generate ~rng big_catalog big_graph in
  Alcotest.check_raises "guard"
    (Failure "Executor: Cartesian product of 3000 x 3000 rows exceeds the 2000000-row guard")
    (fun () -> ignore (Executor.run big Plan.(Join (Leaf 0, Leaf 1))))

let test_estimates_track_actuals () =
  (* On a two-way equi-join the estimate |R||S|/d has relative standard
     error ~ 1/sqrt(|result|); with ~400 expected output rows, 3 sigma
     is ~15%. Run on realized statistics so rounding is not a factor. *)
  let catalog = Catalog.of_list [ ("r", 2000.0); ("s", 2000.0) ] in
  let graph = Join_graph.of_edges ~n:2 [ (0, 1, 1e-4) ] in
  let rng = Rng.create ~seed:17 in
  let data = Datagen.generate ~rng catalog graph in
  let comparisons = Executor.estimate_vs_actual data Plan.(Join (Leaf 0, Leaf 1)) in
  match comparisons with
  | [ c ] ->
    Test_helpers.check_float "estimate is 400" 400.0 c.Executor.estimated;
    let rel_err = Float.abs (c.Executor.actual -. c.Executor.estimated) /. c.Executor.estimated in
    Alcotest.(check bool)
      (Printf.sprintf "actual %.0f within 15%% of estimate" c.Executor.actual)
      true (rel_err < 0.15)
  | _ -> Alcotest.fail "expected one comparison"

let test_operator_work_accounting () =
  let left = Array.init 20 (fun i -> [| i |]) in
  let right = Array.init 30 (fun i -> [| i |]) in
  let keys = [ { Operators.left_col = 0; right_col = 0 } ] in
  let work = Operators.fresh_work () in
  Operators.set_work_sink (Some work);
  let out = Operators.nested_loop_join ~left ~right ~keys in
  Operators.set_work_sink None;
  (* Nested loops visit |L| * |R| inner tuples, one key comparison each. *)
  Alcotest.(check int) "tuple visits" 600 work.Operators.tuple_visits;
  Alcotest.(check int) "comparisons" 600 work.Operators.comparisons;
  Alcotest.(check int) "output rows accounted" (Array.length out) work.Operators.output_rows;
  (* With the sink disabled, nothing accumulates further. *)
  let before = work.Operators.tuple_visits in
  ignore (Operators.nested_loop_join ~left ~right ~keys);
  Alcotest.(check int) "sink off" before work.Operators.tuple_visits

let test_run_with_work () =
  let data, _, _ = chain_dataset () in
  let plan = Plan.(Join (Join (Leaf 0, Leaf 1), Leaf 2)) in
  let result_plain = Executor.run ~algorithm:Executor.Nested_loop data plan in
  let result, work = Executor.run_with_work ~algorithm:Executor.Nested_loop data plan in
  Alcotest.(check int) "same result" result_plain.Executor.rows result.Executor.rows;
  (* First join probes 200*100; second probes |join1| * 50. *)
  let join1_rows =
    match result.Executor.trace with e :: _ -> e.Executor.actual_rows | [] -> 0
  in
  Alcotest.(check int) "NL visits add up" ((200 * 100) + (join1_rows * 50))
    work.Operators.tuple_visits;
  (* Sort-merge does far fewer comparisons than nested loops here. *)
  let _, sm_work = Executor.run_with_work ~algorithm:Executor.Sort_merge data plan in
  Alcotest.(check bool) "sort-merge compares less" true
    (sm_work.Operators.comparisons < work.Operators.comparisons)

let prop_executor_agrees_across_plans_and_algorithms =
  QCheck2.Test.make ~count:25
    ~name:"any two plans and algorithms for one query agree on the result size"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 3 + Rng.int rng 2 in
      let catalog = Catalog.of_cards (Array.init n (fun _ -> float_of_int (20 + Rng.int rng 60))) in
      (* Connected random graph: a chain plus random extra edges, sized to
         keep intermediate results small. *)
      let edges = ref [] in
      for i = 0 to n - 2 do
        edges := (i, i + 1, 0.05 +. Rng.float rng 0.1) :: !edges
      done;
      if Rng.bool rng && n > 2 then edges := (0, n - 1, 0.1) :: !edges;
      let graph = Join_graph.of_edges ~n !edges in
      let data = Datagen.generate ~rng catalog graph in
      let full = Relset.full n in
      let p1 = Blitz_baselines.Transform.random_bushy rng full in
      let p2 = Blitz_baselines.Transform.random_bushy rng full in
      let r1 = (Executor.run ~algorithm:Executor.Hash data p1).Executor.rows in
      let r2 = (Executor.run ~algorithm:Executor.Sort_merge data p2).Executor.rows in
      let r3 = (Executor.run ~algorithm:Executor.Nested_loop data p1).Executor.rows in
      r1 = r2 && r1 = r3)

let suite =
  [
    Alcotest.test_case "table basics" `Quick test_table_basics;
    Alcotest.test_case "table validation" `Quick test_table_validation;
    Alcotest.test_case "operators agree on a fixture" `Quick test_operators_agree;
    Alcotest.test_case "operators as Cartesian product" `Quick test_cartesian_product_operator;
    Alcotest.test_case "datagen shapes" `Quick test_datagen_shapes;
    Alcotest.test_case "realized statistics" `Quick test_realized_statistics;
    Alcotest.test_case "executor: algorithms agree" `Quick test_executor_algorithms_agree;
    Alcotest.test_case "executor: join order invariance" `Quick test_executor_plan_shape_invariance;
    Alcotest.test_case "executor: trace and guards" `Quick test_executor_trace;
    Alcotest.test_case "estimates track actuals" `Quick test_estimates_track_actuals;
    Alcotest.test_case "operator work accounting" `Quick test_operator_work_accounting;
    Alcotest.test_case "run_with_work" `Quick test_run_with_work;
    QCheck_alcotest.to_alcotest prop_operators_agree_random;
    QCheck_alcotest.to_alcotest prop_executor_agrees_across_plans_and_algorithms;
  ]
