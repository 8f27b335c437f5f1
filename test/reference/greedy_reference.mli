(** The list-based greedy heuristic and the fold-based [pi_span] that
    [Blitz_baselines.Greedy.optimize] and [Blitz_graph.Join_graph.pi_span]
    replaced.  Kept outside the library as the ground truth those two
    must match bit for bit (plans, and costs as IEEE bit patterns), and
    as the allocation baseline the greedy's allocation test measures
    against. *)

val pi_span : Blitz_graph.Join_graph.t -> Blitz_bitset.Relset.t -> Blitz_bitset.Relset.t -> float
(** Same contract as [Join_graph.pi_span]. *)

val optimize :
  Blitz_cost.Cost_model.t ->
  Blitz_catalog.Catalog.t ->
  Blitz_graph.Join_graph.t ->
  Blitz_plan.Plan.t * float
(** Same contract as [Greedy.optimize]. *)
