(** Greedy bottom-up join-order heuristic (GOO-style).

    Maintains a forest that starts as [n] single-relation components and
    repeatedly merges the pair with the smallest output cardinality
    until one tree remains: [O(n^3)] work, no optimality guarantee.  Serves as the cheap
    heuristic endpoint of the method-comparison experiment, as the
    starting point for the stochastic searches, and as one of the
    degradation cascade's two heuristic plans, the exact tier's bound and
    the answer when no tier above it answers — so it runs once on
    every guarded cache miss and allocates little: a candidate pair costs
    one boxed span, nothing else. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

val optimize : Cost_model.t -> Catalog.t -> Join_graph.t -> Plan.t * float
(** Returns the greedy plan and its cost under the model.  Each round
    merges the first pair, in a fixed scan order, with the smallest
    output cardinality, so the result is deterministic to the bit.
    Cardinalities are maintained incrementally through the span
    recurrence (Equation 7), so this works for any [n] — no [2^n]
    table. *)
