(** Plan-cost-threshold optimization with re-optimization passes
    (Section 6.4).

    A threshold simulates floating-point overflow far below actual
    overflow: best-split searches are skipped for every subset whose
    [kappa'] alone reaches the threshold, and splits are accepted only
    below it.  Under kappa_sm ([kappa' = 0]) a binary pass charges each
    proper subset its completion term instead
    ({!Split_loop.completion_threshold}).  Queries whose optimal plan is cheap get optimized faster;
    queries whose best plan costs more than the threshold fail the pass
    and are retried with a raised threshold.

    Correctness: plan cost is a sum of non-negative join costs, so every
    subplan of a plan costing under the threshold itself costs under the
    threshold — a pass that succeeds therefore returns the true optimum
    whenever the optimum is below its threshold. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model

type outcome = {
  result : Blitzsplit.t;  (** The final (successful) pass. *)
  passes : int;
      (** Optimization passes actually run, each counted exactly once:
          every thresholded attempt plus the forced unthresholded rescue
          pass when all attempts failed (so with [max_passes = m] the
          worst case is [m + 1], and [passes] always equals the number of
          times the underlying optimizer executed — the same count the
          shared {!Counters.t} accumulates in its [passes] field). *)
  final_threshold : float;
      (** Threshold of the successful pass ([infinity] when the fallback
          unthresholded rescue pass was needed). *)
}

val optimize_join :
  ?arena:Arena.t ->
  ?counters:Counters.t ->
  ?growth:float ->
  ?max_passes:int ->
  ?interrupt:(unit -> bool) ->
  ?multiway:bool ->
  threshold:float ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  outcome
(** [optimize_join ~threshold model catalog graph] runs blitzsplit with
    the given initial plan-cost threshold; on failure the threshold is
    multiplied by [growth] (default [1e4]) and the optimization rerun, up
    to [max_passes] (default 16) thresholded passes, after which a final
    unthresholded rescue pass guarantees an answer.  [counters]
    accumulates over all passes.  [interrupt] is forwarded to every
    underlying pass; when it fires, {!Blitzsplit.Interrupted} propagates
    out of the driver.  [multiway] is likewise forwarded to every pass
    (threshold semantics are unchanged: the n-ary candidate is accepted
    only strictly below the pass threshold, so a successful pass is still
    optimal for its search space).  Raises [Invalid_argument] for a
    threshold that is not positive and finite, a [growth] that does not
    exceed 1 (NaN included), or [max_passes < 1]. *)

val optimize_product :
  ?arena:Arena.t ->
  ?counters:Counters.t ->
  ?growth:float ->
  ?max_passes:int ->
  ?interrupt:(unit -> bool) ->
  threshold:float ->
  Cost_model.t ->
  Catalog.t ->
  outcome

val drive :
  ?counters:Counters.t ->
  ?growth:float ->
  ?max_passes:int ->
  threshold:float ->
  (counters:Counters.t -> threshold:float -> Blitzsplit.t) ->
  outcome
(** The raw multi-pass driver behind {!optimize_join}/{!optimize_product},
    exposed so other pass implementations reuse the exact
    threshold-escalation and rescue-pass policy: the registry's
    blitzsplit entries drive their one pass function through it, which
    runs rank-parallel on a session's pool.  The callback runs one
    optimization pass at the given threshold, accumulating into the
    supplied counters; a pass succeeds when {!Blitzsplit.feasible} holds
    for its result.  Arguments are checked as in {!optimize_join}. *)
