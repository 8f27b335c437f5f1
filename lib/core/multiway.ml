module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Hypergraph = Blitz_graph.Hypergraph
module Agm = Blitz_cost.Agm
module Plan = Blitz_plan.Plan

(* The Dp_table has one integer per subset to name the best plan's shape
   (best_lhs), which cannot describe an n-ary node.  Rather than widen
   the hot table by another column that is zero for every acyclic query,
   multiway winners use the sentinel [best_lhs.(s) = s] (impossible for
   a real split, whose lhs is a proper subset) and park their cover in
   this side table, keyed by the subset.  Everything stays O(1) per
   winning subset, and the table layout — and therefore the split loop's
   cache behavior — is untouched. *)

type t = {
  catalog : Catalog.t;
  graph : Join_graph.t;
  packed : Hypergraph.packed;  (* packed once per query, not per subset *)
  entries : (int, Agm.cover) Hashtbl.t;
}

let create catalog graph =
  {
    catalog;
    graph;
    packed = Hypergraph.pack (Hypergraph.of_join_graph graph);
    entries = Hashtbl.create 64;
  }

(* Structural gate: only 2-edge-connected induced subgraphs (a cyclic
   core) get an n-ary candidate.  On acyclic topologies this is false
   for every subset, so multiway planning does zero floating-point work
   there — the basis of the bit-identity-to-seed guarantee. *)
let candidate t s = Join_graph.two_edge_connected_subset t.graph s

let try_candidate t ~out ~current ~threshold s =
  if not (candidate t s) then None
  else begin
    let cover = Agm.fractional_edge_cover t.catalog t.packed s in
    let inputs = List.map (Catalog.card t.catalog) (Relset.to_list s) in
    let cost = Agm.kappa_multiway ~inputs ~out ~agm:cover.Agm.bound in
    if cost < threshold && cost < current then begin
      Hashtbl.replace t.entries s cover;
      Some cost
    end
    else None
  end

let consider t (tbl : Dp_table.t) (ctr : Counters.t) ~threshold s =
  match
    try_candidate t ~out:tbl.Dp_table.card.(s) ~current:tbl.Dp_table.cost.(s) ~threshold s
  with
  | Some cost ->
    tbl.Dp_table.cost.(s) <- cost;
    tbl.Dp_table.best_lhs.(s) <- s;
    ctr.Counters.multiway_wins <- ctr.Counters.multiway_wins + 1
  | None -> ()

let plan_of t s =
  match Hashtbl.find_opt t.entries s with
  | None -> None
  | Some (c : Agm.cover) ->
    let leaves = List.map (fun i -> Plan.Leaf i) (Relset.to_list s) in
    Some (Plan.multiway ~cover:c.Agm.weights ~agm:c.Agm.bound leaves)

let extract_plan ?multiway (tbl : Dp_table.t) s =
  match multiway with
  | None -> Dp_table.extract_plan tbl s
  | Some t ->
    if s <= 0 || s >= Dp_table.size tbl then
      invalid_arg
        (Printf.sprintf "Multiway.extract_plan: set %d outside table of %d relations" s
           tbl.Dp_table.n);
    let rec go s =
      if Relset.is_singleton s then Plan.Leaf (Relset.min_elt s)
      else begin
        let lhs = tbl.Dp_table.best_lhs.(s) in
        if lhs = 0 then raise Exit
        else if lhs = s then
          match plan_of t s with Some p -> p | None -> raise Exit
        else Plan.Join (go lhs, go (s lxor lhs))
      end
    in
    (match go s with plan -> Some plan | exception Exit -> None)
