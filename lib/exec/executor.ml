module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Plan = Blitz_plan.Plan
module Relset = Blitz_bitset.Relset

type algorithm = Nested_loop | Hash | Sort_merge

let algorithm_name = function
  | Nested_loop -> "nested-loop"
  | Hash -> "hash"
  | Sort_merge -> "sort-merge"

let algorithm_of_name = function
  | "nested-loop" | "kdnl" -> Some Nested_loop
  | "hash" -> Some Hash
  | "sort-merge" | "ksm" -> Some Sort_merge
  | _ -> None

type trace_entry = { set : Relset.t; actual_rows : int; cartesian : bool }
type result = { rows : int; trace : trace_entry list }

(* An intermediate result: rows plus the provenance of each column. *)
type batch = { cols : (int * string) array; rows : int array array; set : Relset.t }

let leaf_batch (dataset : Datagen.t) i =
  if i < 0 || i >= Array.length dataset.Datagen.tables then
    invalid_arg (Printf.sprintf "Executor: plan references relation %d outside the dataset" i);
  let table = dataset.Datagen.tables.(i) in
  {
    cols = Array.map (fun c -> (i, c)) (Table.columns table);
    rows = Array.init (Table.n_rows table) (fun r -> Table.row table r);
    set = Relset.singleton i;
  }

let find_col batch rel attr =
  let found = ref None in
  Array.iteri
    (fun idx (r, a) -> if r = rel && a = attr && !found = None then found := Some idx)
    batch.cols;
  match !found with
  | Some idx -> idx
  | None ->
    invalid_arg (Printf.sprintf "Executor: column %s of relation %d not found" attr rel)

(* The predicates spanning the two operands (Section 5.1: all of them,
   and only them). *)
let spanning_keys graph lbatch rbatch =
  List.filter_map
    (fun (i, j, _sel) ->
      let attr = Datagen.edge_attribute i j in
      if Relset.mem lbatch.set i && Relset.mem rbatch.set j then
        Some { Operators.left_col = find_col lbatch i attr; right_col = find_col rbatch j attr }
      else if Relset.mem lbatch.set j && Relset.mem rbatch.set i then
        Some { Operators.left_col = find_col lbatch j attr; right_col = find_col rbatch i attr }
      else None)
    (Join_graph.edges graph)

let execute ~algorithm ~max_intermediate_rows (dataset : Datagen.t) plan =
  let join_fn =
    match algorithm with
    | Nested_loop -> Operators.nested_loop_join
    | Hash -> Operators.hash_join
    | Sort_merge -> Operators.sort_merge_join
  in
  let trace = ref [] in
  let rec go = function
    | Plan.Leaf i -> leaf_batch dataset i
    | Plan.Join (l, r) ->
      let lb = go l and rb = go r in
      if not (Relset.disjoint lb.set rb.set) then
        invalid_arg "Executor: operands share a relation";
      let keys = spanning_keys dataset.Datagen.graph lb rb in
      if
        keys = []
        && Array.length lb.rows * Array.length rb.rows > max_intermediate_rows
      then
        failwith
          (Printf.sprintf "Executor: Cartesian product of %d x %d rows exceeds the %d-row guard"
             (Array.length lb.rows) (Array.length rb.rows) max_intermediate_rows);
      (* Keyed nested loops probe |L| x |R| tuples regardless of output
         size; bound the probe count so a pathological plan fails fast
         instead of running for hours. *)
      if
        algorithm = Nested_loop
        && keys <> []
        && Array.length lb.rows * Array.length rb.rows > 100 * max_intermediate_rows
      then
        failwith
          (Printf.sprintf
             "Executor: nested-loop probe count %d x %d exceeds the %d-probe guard"
             (Array.length lb.rows) (Array.length rb.rows)
             (100 * max_intermediate_rows));
      let rows = join_fn ~left:lb.rows ~right:rb.rows ~keys in
      if Array.length rows > max_intermediate_rows then
        failwith
          (Printf.sprintf "Executor: intermediate result of %d rows exceeds the %d-row guard"
             (Array.length rows) max_intermediate_rows);
      let set = Relset.union lb.set rb.set in
      trace := { set; actual_rows = Array.length rows; cartesian = keys = [] } :: !trace;
      { cols = Array.append lb.cols rb.cols; rows; set }
  in
  let final = go plan in
  { rows = Array.length final.rows; trace = List.rev !trace }

(* The guard against materializing a huge Cartesian product. *)
let row_cap = 2_000_000

let run ?(algorithm = Hash) dataset plan = execute ~algorithm ~max_intermediate_rows:row_cap dataset plan

let run_with_work ?(algorithm = Hash) ?(max_intermediate_rows = row_cap) dataset plan =
  let work = Operators.fresh_work () in
  Operators.set_work_sink (Some work);
  let finish () = Operators.set_work_sink None in
  match execute ~algorithm ~max_intermediate_rows dataset plan with
  | result ->
    finish ();
    (result, work)
  | exception e ->
    finish ();
    raise e

type comparison = { at : Relset.t; estimated : float; actual : float }

let estimate_vs_actual dataset plan =
  let { trace; _ } = run dataset plan in
  let catalog = Datagen.realized_catalog dataset in
  let graph = Datagen.realized_graph dataset in
  List.map
    (fun { set; actual_rows; _ } ->
      {
        at = set;
        estimated = Join_graph.join_cardinality catalog graph set;
        actual = float_of_int actual_rows;
      })
    trace
