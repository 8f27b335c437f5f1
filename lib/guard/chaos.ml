module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Rng = Blitz_util.Rng

type input = { relations : (string * float) list; edges : (int * int * float) list }

let input_of catalog graph =
  {
    relations =
      List.combine
        (Array.to_list (Catalog.names catalog))
        (Array.to_list (Catalog.cards catalog));
    edges = Join_graph.edges graph;
  }

type fault =
  | Card_nan of int
  | Card_infinite of int
  | Card_negative of int
  | Card_zero of int
  | Sel_nan of int * int
  | Sel_zero of int * int
  | Sel_above_one of int * int
  | Edge_dropped of int * int
  | Edge_duplicated of int * int
  | Edge_endpoint_wild of int * int
  | Name_cleared of int
  | Name_duplicated of int
  | Catalog_scrambled

let fault_message = function
  | Card_nan i -> Printf.sprintf "cardinality of relation %d set to NaN" i
  | Card_infinite i -> Printf.sprintf "cardinality of relation %d set to infinity" i
  | Card_negative i -> Printf.sprintf "cardinality of relation %d negated" i
  | Card_zero i -> Printf.sprintf "cardinality of relation %d zeroed" i
  | Sel_nan (i, j) -> Printf.sprintf "selectivity of edge (%d, %d) set to NaN" i j
  | Sel_zero (i, j) -> Printf.sprintf "selectivity of edge (%d, %d) zeroed" i j
  | Sel_above_one (i, j) -> Printf.sprintf "selectivity of edge (%d, %d) inflated above 1" i j
  | Edge_dropped (i, j) -> Printf.sprintf "edge (%d, %d) dropped" i j
  | Edge_duplicated (i, j) -> Printf.sprintf "edge (%d, %d) duplicated" i j
  | Edge_endpoint_wild (i, j) -> Printf.sprintf "edge (%d, %d) rewired out of range" i j
  | Name_cleared i -> Printf.sprintf "name of relation %d cleared" i
  | Name_duplicated i -> Printf.sprintf "name of relation %d duplicated from its neighbor" i
  | Catalog_scrambled -> "every cardinality in the catalog replaced with garbage"

(* The whole-catalog fault: every cardinality becomes one of the four
   invalid shapes.  This is the corruption Sanitize cannot repair
   honestly — it can only fabricate — and hence the fault that
   exercises the degrade-to-estimate-free path. *)
let garbage_card rng =
  match Rng.int rng 4 with
  | 0 -> Float.nan
  | 1 -> Float.infinity
  | 2 -> Float.neg_infinity
  | _ -> -.(1.0 +. Rng.float rng 100.0)

let scramble_cards rng input =
  { input with relations = List.map (fun (nm, _) -> (nm, garbage_card rng)) input.relations }

let set_nth l n f = List.mapi (fun i x -> if i = n then f x else x) l

(* One corruption step.  Returns [None] when the drawn fault is not
   applicable (e.g. an edge fault on an edge-free input) so the driver
   can redraw — keeping the fault mix independent of input shape. *)
let inject rng input =
  let n_rel = List.length input.relations in
  let n_edge = List.length input.edges in
  let rel () = Rng.int rng n_rel in
  let edge () = Rng.int rng n_edge in
  match Rng.int rng 13 with
  | 0 ->
    let r = rel () in
    Some
      ({ input with relations = set_nth input.relations r (fun (nm, _) -> (nm, Float.nan)) },
       Card_nan r)
  | 1 ->
    let r = rel () in
    Some
      ( { input with relations = set_nth input.relations r (fun (nm, _) -> (nm, Float.infinity)) },
        Card_infinite r )
  | 2 ->
    let r = rel () in
    Some
      ( { input with relations = set_nth input.relations r (fun (nm, c) -> (nm, -.c)) },
        Card_negative r )
  | 3 ->
    let r = rel () in
    Some
      ({ input with relations = set_nth input.relations r (fun (nm, _) -> (nm, 0.0)) }, Card_zero r)
  | 4 when n_edge > 0 ->
    let e = edge () in
    let i, j, _ = List.nth input.edges e in
    Some
      ( { input with edges = set_nth input.edges e (fun (i, j, _) -> (i, j, Float.nan)) },
        Sel_nan (i, j) )
  | 5 when n_edge > 0 ->
    let e = edge () in
    let i, j, _ = List.nth input.edges e in
    Some
      ({ input with edges = set_nth input.edges e (fun (i, j, _) -> (i, j, 0.0)) }, Sel_zero (i, j))
  | 6 when n_edge > 0 ->
    let e = edge () in
    let i, j, _ = List.nth input.edges e in
    let factor = 1.0 +. Rng.float rng 9.0 in
    Some
      ( { input with edges = set_nth input.edges e (fun (i, j, s) -> (i, j, (s *. factor) +. 1.0)) },
        Sel_above_one (i, j) )
  | 7 when n_edge > 0 ->
    let e = edge () in
    let i, j, _ = List.nth input.edges e in
    Some
      ( { input with edges = List.filteri (fun k _ -> k <> e) input.edges },
        Edge_dropped (i, j) )
  | 8 when n_edge > 0 ->
    let e = edge () in
    let ((i, j, _) as dup) = List.nth input.edges e in
    Some ({ input with edges = dup :: input.edges }, Edge_duplicated (i, j))
  | 9 when n_edge > 0 ->
    let e = edge () in
    let i, j, _ = List.nth input.edges e in
    Some
      ( { input with edges = set_nth input.edges e (fun (i, _, s) -> (i, n_rel + Rng.int rng 3, s)) },
        Edge_endpoint_wild (i, j) )
  | 10 ->
    let r = rel () in
    Some
      ({ input with relations = set_nth input.relations r (fun (_, c) -> ("", c)) }, Name_cleared r)
  | 11 when n_rel > 1 ->
    let r = 1 + Rng.int rng (n_rel - 1) in
    let prev_name = fst (List.nth input.relations (r - 1)) in
    Some
      ( { input with relations = set_nth input.relations r (fun (_, c) -> (prev_name, c)) },
        Name_duplicated r )
  | 12 -> Some (scramble_cards rng input, Catalog_scrambled)
  | _ -> None

let corrupt ~seed ?faults input =
  if List.length input.relations = 0 then invalid_arg "Chaos.corrupt: empty input";
  let rng = Rng.create ~seed in
  let faults = match faults with Some f -> max 0 f | None -> 1 + Rng.int rng 3 in
  let rec go input applied remaining attempts =
    if remaining = 0 || attempts = 0 then (input, List.rev applied)
    else
      match inject rng input with
      | Some (input, fault) -> go input (fault :: applied) (remaining - 1) attempts
      | None -> go input applied remaining (attempts - 1)
  in
  go input [] faults (faults * 20)

let scramble_catalog ~seed input =
  if List.length input.relations = 0 then invalid_arg "Chaos.scramble_catalog: empty input";
  let rng = Rng.create ~seed in
  (scramble_cards rng input, [ Catalog_scrambled ])
