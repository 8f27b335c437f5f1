(* The greedy heuristic as first written: the forest is a list of
   records, every candidate pair is scored through a tuple of boxed
   floats, and spans are folded through [Relset.fold] closures, which box
   the accumulator at every step.  Same contracts as
   [Blitz_baselines.Greedy.optimize] and [Blitz_graph.Join_graph.pi_span]. *)

module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

let pi_span graph u v =
  if not (Relset.disjoint u v) then invalid_arg "Join_graph.pi_span: sets intersect";
  Relset.fold
    (fun acc i ->
      Relset.fold
        (fun acc j ->
          if Join_graph.has_edge graph i j then acc *. Join_graph.selectivity graph i j else acc)
        acc v)
    1.0 u

type component = { plan : Plan.t; set : int; card : float }

let optimize model catalog graph =
  let n = Catalog.n catalog in
  if Join_graph.n graph <> n then invalid_arg "Greedy.optimize: graph/catalog size mismatch";
  let components =
    ref
      (List.init n (fun i ->
           { plan = Plan.Leaf i; set = 1 lsl i; card = Catalog.card catalog i }))
  in
  let total_cost = ref 0.0 in
  let merge_score a b =
    let out = a.card *. b.card *. pi_span graph a.set b.set in
    (out, Cost_model.kappa model ~out ~lcard:a.card ~rcard:b.card)
  in
  while List.length !components > 1 do
    let best = ref None in
    let rec scan = function
      | [] | [ _ ] -> ()
      | a :: rest ->
        List.iter
          (fun b ->
            let out, join_cost = merge_score a b in
            match !best with
            | Some (s, _, _, _) when s <= out -> ()
            | Some _ | None -> best := Some (out, a, b, join_cost))
          rest;
        scan rest
    in
    scan !components;
    match !best with
    | None -> assert false
    | Some (out, a, b, join_cost) ->
      total_cost := !total_cost +. join_cost;
      let merged = { plan = Plan.Join (a.plan, b.plan); set = a.set lor b.set; card = out } in
      components := merged :: List.filter (fun c -> c.set <> a.set && c.set <> b.set) !components
  done;
  match !components with
  | [ c ] -> (c.plan, !total_cost)
  | [] | _ :: _ -> assert false
