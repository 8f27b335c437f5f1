(** Fast repeated plan costing against a precomputed cardinality table.

    Stochastic optimizers evaluate thousands of plans over one fixed
    query; recomputing induced-subgraph selectivity products per plan
    would drown the search in estimation cost.  This evaluator pays the
    [O(2^n)] fan-recurrence table once and then costs any plan in
    [O(n)] — using exactly the cardinality estimates the DP optimizers
    use, so cross-method plan-cost comparisons are apples to apples. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

type t

val make : Blitz_cost.Cost_model.t -> Catalog.t -> Join_graph.t -> t

val cost : t -> Plan.t -> float
(** Cost of the plan under the evaluator's model (Equations (1)-(2)). *)
