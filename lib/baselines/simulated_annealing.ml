module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Relset = Blitz_bitset.Relset
module Rng = Blitz_util.Rng

type stats = { plans_evaluated : int; uphill_accepted : int; temperature_stages : int }

(* The schedule: the temperature starts at the first plan's cost, each
   stage proposes [8 n^2] moves, and the temperature then cools by 0.9
   until it falls below 1e-4 times the best cost seen. *)
let cooling = 0.9
let min_temperature_ratio = 1e-4

let optimize ~rng model catalog graph =
  let n = Catalog.n catalog in
  let moves_per_stage = 8 * n * n in
  let eval = Eval.make model catalog graph in
  if n = 1 then
    ((Plan.Leaf 0, 0.0), { plans_evaluated = 0; uphill_accepted = 0; temperature_stages = 0 })
  else begin
    let evaluations = ref 0 and uphill = ref 0 and stages = ref 0 in
    let measure plan =
      incr evaluations;
      Eval.cost eval plan
    in
    let current = ref (Transform.random_bushy rng (Relset.full n)) in
    let current_cost = ref (measure !current) in
    let best = ref !current and best_cost = ref !current_cost in
    let temperature = ref (Float.max 1.0 !current_cost) in
    let frozen = ref false in
    while (not !frozen) && !temperature > min_temperature_ratio *. Float.max 1.0 !best_cost do
      incr stages;
      let accepted_this_stage = ref 0 in
      for _ = 1 to moves_per_stage do
        let candidate = Transform.random_neighbor rng !current in
        let cost = measure candidate in
        let delta = cost -. !current_cost in
        let accept =
          if delta <= 0.0 then true
          else begin
            let p = exp (-.delta /. !temperature) in
            let take = Rng.float rng 1.0 < p in
            if take then incr uphill;
            take
          end
        in
        if accept then begin
          incr accepted_this_stage;
          current := candidate;
          current_cost := cost;
          if cost < !best_cost then begin
            best := candidate;
            best_cost := cost
          end
        end
      done;
      if !accepted_this_stage = 0 then frozen := true;
      temperature := !temperature *. cooling
    done;
    ( (!best, !best_cost),
      { plans_evaluated = !evaluations; uphill_accepted = !uphill; temperature_stages = !stages } )
  end
