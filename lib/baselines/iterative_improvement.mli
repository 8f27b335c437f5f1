(** Iterative improvement: randomized local descent with restarts.

    The stochastic baseline Steinbrunn's survey (and the paper's
    Section 2) discusses: from a random start plan, sample random
    transformation moves, accept strict improvements, and declare a local
    minimum after a run of consecutive failures; restart from a fresh
    random plan and keep the best local minimum found.  Deterministic
    given the RNG seed. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Rng = Blitz_util.Rng

type stats = {
  plans_evaluated : int;
  restarts_done : int;
  best_found_at_eval : int;  (** Evaluation index at which the returned plan was first reached. *)
}

val optimize :
  rng:Rng.t ->
  ?restarts:int ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  (Plan.t * float) * stats
(** [optimize ~rng model catalog graph] with [restarts] random starting
    plans (default 10) and local minima declared after [16 * n]
    consecutive rejected moves. *)
