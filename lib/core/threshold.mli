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

type outcome = {
  result : Blitzsplit.t;  (** The final (successful) pass. *)
  passes : int;
      (** Optimization passes actually run, each counted exactly once:
          every thresholded attempt plus the forced unthresholded rescue
          pass when all attempts failed (so the worst case is 17, and
          [passes] always equals the number of times the underlying
          optimizer executed — the same count the shared {!Counters.t}
          accumulates in its [passes] field). *)
  final_threshold : float;
      (** Threshold of the successful pass ([infinity] when the fallback
          unthresholded rescue pass was needed). *)
}

val drive :
  ?counters:Counters.t ->
  ?growth:float ->
  threshold:float ->
  (counters:Counters.t -> threshold:float -> Blitzsplit.t) ->
  outcome
(** [drive ~threshold run] runs one pass at [threshold]; when it finds
    no plan the threshold is multiplied by [growth] (default [1e4]) and
    the pass rerun, up to 16 thresholded passes; after the last, or once
    the threshold grows to infinity, a final unthresholded rescue pass
    guarantees an answer.  The callback runs one optimization pass at
    the given threshold, accumulating into the supplied counters; a pass
    succeeds when {!Blitzsplit.feasible} holds for its result, and
    whatever it raises propagates out of the driver.  The registry's
    [exact] entry drives its one pass function through it when its ctx
    carries a threshold.  Raises [Invalid_argument] for a threshold that
    is not positive and finite, or a [growth] that does not exceed 1
    (NaN included). *)
