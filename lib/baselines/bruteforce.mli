(** Exhaustive plan enumeration: the correctness oracle.

    Enumerates every unordered bushy plan over the relation set — all
    [(2n-3)!!] of them — and costs each with the shared evaluator.  Used
    by the property tests to certify that blitzsplit (and the baselines
    claiming optimality) return true optima.  Guarded to small [n]: at
    [n = 10] there are already 34,459,425 plans. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

val max_relations : int
(** 10. *)

val optimize : Cost_model.t -> Catalog.t -> Join_graph.t -> Plan.t * float
(** Optimal plan and cost over all catalog relations.  Raises
    [Invalid_argument] beyond {!max_relations}. *)

val optimize_leftdeep : Cost_model.t -> Catalog.t -> Join_graph.t -> Plan.t * float
(** Optimum restricted to left-deep plans (all [n!/2] leaf orders) —
    oracle for the left-deep DP baseline. *)
