module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Relset = Blitz_bitset.Relset

type t = { n : int; model : Cost_model.t; card : float array }

let make model catalog graph =
  { n = Catalog.n catalog; model; card = Blitz_core.Card_table.compute catalog graph }

let cardinality t s =
  if s <= 0 || s >= Array.length t.card then invalid_arg "Eval.cardinality: set out of range";
  t.card.(s)

let cost t plan =
  let card = t.card and model = t.model in
  let rec go = function
    | Plan.Leaf i ->
      if i < 0 || i >= t.n then invalid_arg "Eval.cost: leaf outside catalog";
      (0.0, 1 lsl i)
    | Plan.Join (l, r) ->
      let lcost, ls = go l in
      let rcost, rs = go r in
      if ls land rs <> 0 then invalid_arg "Eval.cost: operands share a relation";
      let s = ls lor rs in
      ( lcost +. rcost
        +. Cost_model.kappa model ~out:card.(s) ~lcard:card.(ls) ~rcard:card.(rs),
        s )
  in
  fst (go plan)
