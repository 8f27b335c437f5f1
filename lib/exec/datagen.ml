module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Relset = Blitz_bitset.Relset
module Rng = Blitz_util.Rng

type t = { catalog : Catalog.t; graph : Join_graph.t; tables : Table.t array }

let edge_attribute i j = Printf.sprintf "j%d_%d" (min i j) (max i j)

let domain_of_selectivity s =
  if s >= 1.0 then 1 else max 1 (int_of_float (Float.round (1.0 /. s)))

let realized_selectivity graph i j =
  1.0 /. float_of_int (domain_of_selectivity (Join_graph.selectivity graph i j))

(* A relation past this many rows is refused rather than generated. *)
let max_rows = 500_000

let generate ~rng catalog graph =
  let n = Catalog.n catalog in
  if Join_graph.n graph <> n then invalid_arg "Datagen.generate: graph/catalog size mismatch";
  let tables =
    Array.init n (fun i ->
        let requested = Catalog.card catalog i in
        let rows_count = max 1 (int_of_float (Float.round requested)) in
        if rows_count > max_rows then
          invalid_arg
            (Printf.sprintf "Datagen.generate: relation %s needs %d rows (max_rows = %d)"
               (Catalog.name catalog i) rows_count max_rows);
        (* One id column plus one join column per incident predicate. *)
        let incident = Relset.to_list (Join_graph.neighbors graph i) in
        let columns = Array.of_list ("id" :: List.map (fun j -> edge_attribute i j) incident) in
        let domains =
          Array.of_list
            (0
            :: List.map
                 (fun j -> domain_of_selectivity (Join_graph.selectivity graph i j))
                 incident)
        in
        let rows =
          Array.init rows_count (fun r ->
              Array.init (Array.length columns) (fun c ->
                  if c = 0 then r else Rng.int rng domains.(c)))
        in
        Table.create ~name:(Catalog.name catalog i) ~columns ~rows)
  in
  { catalog; graph; tables }

let realized_graph t =
  let edges =
    List.map
      (fun (i, j, _) -> (i, j, realized_selectivity t.graph i j))
      (Join_graph.edges t.graph)
  in
  Join_graph.of_edges ~n:(Join_graph.n t.graph) edges

let realized_catalog t =
  Catalog.of_list
    (Array.to_list
       (Array.map (fun tbl -> (Table.name tbl, float_of_int (Table.n_rows tbl))) t.tables))
