(** Simulated annealing over bushy join plans.

    The second classic stochastic baseline (Section 2 / Steinbrunn):
    random moves are always accepted when they improve the plan and with
    probability [exp(-delta / temperature)] otherwise; the temperature
    follows a geometric cooling schedule.  Deterministic given the RNG
    seed. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Rng = Blitz_util.Rng

type stats = { plans_evaluated : int; uphill_accepted : int; temperature_stages : int }

val optimize :
  rng:Rng.t -> Cost_model.t -> Catalog.t -> Join_graph.t -> (Plan.t * float) * stats
(** [optimize ~rng model catalog graph]: starts from a random bushy plan
    at a temperature equal to its cost (so early uphill moves are
    likely); each stage performs [8 * n^2] proposals before multiplying
    the temperature by 0.9; annealing stops once the temperature falls
    below 1e-4 times the best cost seen, or the system freezes.  Returns
    the best plan encountered. *)
