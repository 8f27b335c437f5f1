(** Hybrid optimization: dynamic programming inside randomized search.

    Section 7 of the paper announces (as future work, inspired by Martin
    & Otto's Chained Local Optimization) "a hybrid [that] combines dynamic
    programming with randomized search" to get past the exponential wall
    of exhaustive search.  This module implements that idea:

    - the current plan is improved by repeatedly choosing a {e window}:
      a subtree is decomposed into at most [window] {e units} (whole
      sub-subtrees; single relations when the subtree is small), each
      unit becomes a pseudo-relation whose cardinality and pairwise
      selectivities follow from Equations (7)/(8), and blitzsplit
      re-arranges the units {e exactly}.  Unit-internal structure is
      untouched, so splicing the optimal arrangement back in can only
      lower total cost — even near the root of a large plan;
    - when no window re-arrangement improves the plan, it is {e kicked}
      — several random transformation moves — and the descent repeats,
      keeping the chain's best plan (the CLO acceptance rule).

    Because each window costs at most [O(3^window)], total work is
    polynomial in [n] for fixed [window], letting the hybrid scale far
    beyond [Dp_table.max_relations] relations. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Rng = Blitz_util.Rng

type stats = {
  windows_reoptimized : int;  (** Exact DP re-optimizations performed. *)
  windows_improved : int;  (** Of those, how many lowered the cost. *)
  kicks : int;  (** Perturbation phases. *)
  plans_evaluated : int;
}

val optimize :
  rng:Rng.t ->
  ?arena:Blitz_core.Arena.t ->
  ?window:int ->
  ?kicks:int ->
  ?start:Plan.t ->
  ?interrupt:(unit -> bool) ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  (Plan.t * float) * stats
(** [optimize ~rng model catalog graph] runs chained descent.  [arena]
    pools the DP tables of the window re-optimizations (one small table
    per window size instead of a fresh allocation per window — the inner
    blitzsplit runs thousands of times on big plans); results are
    bit-identical either way.  [window]
    (default [min 10 n]) bounds exact-reoptimization size;
    [kicks] (default [4 * n]) bounds perturbation phases, each of three
    random moves; [start] defaults to the greedy plan.  [interrupt] is polled between
    window re-optimizations and between kicks; when it returns [true]
    the search stops gracefully and the chain's best plan so far is
    returned (never an exception — an anytime algorithm has a valid
    answer from the first measurement on).  Unlike blitzsplit itself,
    this works for arbitrarily many relations: plans are priced with
    {!Plan.cost}, the reference costing, at every [n], so no [2^n]
    table is built outside the windows' own small DP tables. *)
