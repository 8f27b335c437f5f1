module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph

type bound_query = {
  catalog : Catalog.t;
  graph : Join_graph.t;
  predicates : ((int * string) * (int * string) * float) list;
  required_order : int option;
}

type error = { message : string; error_pos : Ast.position }

let pp_error ppf e = Format.fprintf ppf "%s (%a)" e.message Ast.pp_position e.error_pos

exception Bind_error of error

let fail pos fmt = Format.kasprintf (fun message -> raise (Bind_error { message; error_pos = pos })) fmt

let bind_select_exn ~tables (select : Ast.select) =
  if select.Ast.from = [] then fail select.Ast.select_pos "FROM clause is empty";
  (* Resolve FROM items to (binding name, cardinality), dense indexes. *)
  let by_binding = Hashtbl.create 16 in
  let entries =
    List.mapi
      (fun idx (item : Ast.from_item) ->
        let binding = Ast.binding_name item in
        (match List.assoc_opt item.Ast.table_name tables with
        | None -> fail item.Ast.from_pos "unknown table %S" item.Ast.table_name
        | Some _ -> ());
        if Hashtbl.mem by_binding binding then
          fail item.Ast.from_pos
            "duplicate relation name %S in FROM (use an alias for self-joins)" binding;
        Hashtbl.add by_binding binding idx;
        (binding, List.assoc item.Ast.table_name tables))
      select.Ast.from
  in
  let catalog =
    match Catalog.of_list_result entries with
    | Ok c -> c
    | Error e -> fail select.Ast.select_pos "%s" (Catalog.error_message e)
  in
  let resolve (r : Ast.column_ref) =
    match Hashtbl.find_opt by_binding r.Ast.table with
    | Some idx -> idx
    | None -> fail r.Ast.ref_pos "relation %S is not in the FROM clause" r.Ast.table
  in
  let predicates =
    List.map
      (fun (p : Ast.predicate) ->
        let li = resolve p.Ast.lhs and ri = resolve p.Ast.rhs in
        if li = ri then
          fail p.Ast.pred_pos "predicate relates %S to itself; only join predicates are supported"
            p.Ast.lhs.Ast.table;
        let sel =
          match p.Ast.selectivity with
          | Some s ->
            if s > 1.0 then fail p.Ast.pred_pos "selectivity %g exceeds 1" s;
            if Float.is_nan s || s <= 0.0 then
              fail p.Ast.pred_pos "selectivity %g is not in (0, 1]" s;
            s
          | None -> 1.0 /. Float.max (Catalog.card catalog li) (Catalog.card catalog ri)
        in
        ((li, p.Ast.lhs.Ast.column), (ri, p.Ast.rhs.Ast.column), sel))
      select.Ast.where
  in
  (* Conjoin multiple predicates between the same pair. *)
  let pair_sel = Hashtbl.create 16 in
  List.iter
    (fun ((li, _), (ri, _), sel) ->
      let key = (min li ri, max li ri) in
      let existing = Option.value ~default:1.0 (Hashtbl.find_opt pair_sel key) in
      Hashtbl.replace pair_sel key (existing *. sel))
    predicates;
  let edges = Hashtbl.fold (fun (i, j) sel acc -> (i, j, sel) :: acc) pair_sel [] in
  let graph =
    match Join_graph.of_edges_result ~n:(Catalog.n catalog) edges with
    | Ok g -> g
    | Error e -> fail select.Ast.select_pos "%s" (Join_graph.error_message e)
  in
  let required_order =
    match select.Ast.order_by with
    | None -> None
    | Some col ->
      let rel = resolve col in
      let matches ((li, lc), (ri, rc), _) =
        (li = rel && lc = col.Ast.column) || (ri = rel && rc = col.Ast.column)
      in
      (match List.find_opt matches predicates with
      | None ->
        fail col.Ast.ref_pos
          "ORDER BY %s.%s: only join attributes (columns used in WHERE) can be ordered by"
          col.Ast.table col.Ast.column
      | Some ((li, _), (ri, _), _) ->
        let key = (min li ri, max li ri) in
        let sorted_edges = Join_graph.edges graph in
        let rec index i = function
          | [] -> fail col.Ast.ref_pos "internal: ORDER BY edge not found in the join graph"
          | (a, b, _) :: rest -> if (a, b) = key then Some i else index (i + 1) rest
        in
        index 0 sorted_edges)
  in
  { catalog; graph; predicates; required_order }

let bind_script statements =
  let schema = Hashtbl.create 16 in
  let bind_all () =
    List.filter_map
      (fun stmt ->
        match stmt with
        | Ast.Create_table { name; cardinality; create_pos } ->
          if Hashtbl.mem schema name then fail create_pos "table %S is already defined" name;
          (* Reject bad statistics where the position is known, not when
             a later SELECT's catalog construction trips over them. *)
          if not (Float.is_finite cardinality) || cardinality <= 0.0 then
            fail create_pos "table %S has invalid cardinality %g" name cardinality;
          Hashtbl.add schema name cardinality;
          None
        | Ast.Select select ->
          let tables = Hashtbl.fold (fun k v acc -> (k, v) :: acc) schema [] in
          Some (bind_select_exn ~tables select))
      statements
  in
  match bind_all () with qs -> Ok qs | exception Bind_error e -> Error e

let parse_and_bind text =
  match Parser.parse_script text with
  | Error e -> Error (Format.asprintf "parse error: %a" Parser.pp_error e)
  | Ok statements -> (
    match bind_script statements with
    | Error e -> Error (Format.asprintf "binding error: %a" pp_error e)
    | Ok qs -> Ok qs)
