module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Relset = Blitz_bitset.Relset
module Rng = Blitz_util.Rng

type stats = { plans_evaluated : int; restarts_done : int; best_found_at_eval : int }

let optimize ~rng ?(restarts = 10) model catalog graph =
  let n = Catalog.n catalog in
  if restarts < 1 then invalid_arg "Iterative_improvement: restarts must be positive";
  (* A local minimum is declared after [16 n] rejected moves in a row. *)
  let patience = 16 * n in
  let eval = Eval.make model catalog graph in
  let full = Relset.full n in
  let evaluations = ref 0 in
  let measure plan =
    incr evaluations;
    Eval.cost eval plan
  in
  let best_plan = ref (Plan.Leaf 0) and best_cost = ref Float.infinity and best_at = ref 0 in
  let remember plan cost =
    if cost < !best_cost then begin
      best_plan := plan;
      best_cost := cost;
      best_at := !evaluations
    end
  in
  if n = 1 then ((Plan.Leaf 0, 0.0), { plans_evaluated = 0; restarts_done = 0; best_found_at_eval = 0 })
  else begin
    for _restart = 1 to restarts do
      let current = ref (Transform.random_bushy rng full) in
      let current_cost = ref (measure !current) in
      remember !current !current_cost;
      let failures = ref 0 in
      while !failures < patience do
        let candidate = Transform.random_neighbor rng !current in
        let cost = measure candidate in
        if cost < !current_cost then begin
          current := candidate;
          current_cost := cost;
          failures := 0;
          remember candidate cost
        end
        else incr failures
      done
    done;
    ( (!best_plan, !best_cost),
      { plans_evaluated = !evaluations; restarts_done = restarts; best_found_at_eval = !best_at } )
  end
