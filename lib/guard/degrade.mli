(** The graceful-degradation cascade: exact search first, cheaper
    orderings when budgets bite.

    The paper's Section 6.4 already treats "no plan found" as a
    recoverable condition (a failed thresholded pass is retried); this
    module generalizes that stance to the whole optimizer portfolio.
    Tiers are tried in order — exact blitzsplit pruned at an upper
    bound, connectivity-pruned DPccp, the Section 7 hybrid (DP windows
    inside randomized search), then the cheaper of greedy's plan and the
    estimate-free Simpli-Squared structural order — and the first to
    produce a plan wins.  Every decision is recorded as {e provenance}:
    which tier produced the plan, why each earlier tier was skipped
    (table too large for the memory ceiling, algorithm not applicable,
    deadline already gone) or aborted (deadline fired mid-search), and
    how much wall clock each consumed.

    The two heuristic plans are computed once per request, bound the
    exact tier and are never skipped, so a sanitized input yields a plan
    unless both cost NaN; on fabricated statistics no cost-based tier
    runs and the estimate-free plan, which reads none, leads. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Engine = Blitz_engine.Engine

type tier =
  | Exact
      (** Blitzsplit's optimum, pruned at an upper bound: one Section
          6.4 pass at [Registry.upper_bound], the cheaper of greedy's
          and Simpli-Squared's plan costs times [1 + 1e-9].  Under
          kappa_sm the pass also charges each subset what every
          completion of it must pay ([Split_loop.completion_threshold]).
          Neither skips a subset of the plain DP's plan, so cost and plan are the unthresholded
          DP's bit for bit.  The bound is a plan-cost threshold like any
          other ([Registry.ctx]'s [threshold]); being above the optimum,
          its first pass succeeds.  Without a finite bound, one
          unthresholded pass.  The cascade's only Section 6.4 pass; its
          attempt records the bound. *)
  | Dpccp
      (** Connectivity-pruned DP: the product-free optimum at csg-cmp
          cost.  Polynomial on sparse graphs and table-free beyond
          [n = 20], so it survives the size caps and memory ceilings
          that skip the full-space DP tiers; skipped on disconnected
          graphs (its plan space is empty there). *)
  | Hybrid_windows  (** Section 7 hybrid: anytime, any [n]. *)
  | Greedy  (** Greedy's plan, when it is the cheaper heuristic. *)
  | Estimate_free
      (** Simpli-Squared's structural order, when it is the cheaper
          heuristic or the statistics are fabricated: it reads none. *)

val tier_name : tier -> string
(** Stable lowercase identifier ([{!Estimate_free} ↦ "simpli-squared"])
    — the name provenance rendering, serve responses and the CLI all
    print, and the registry names the tier's entry by. *)

type skip_reason =
  | Too_large of { n : int; limit : int }  (** Beyond [Dp_table.max_relations]. *)
  | Memory of { needed_bytes : int; limit_bytes : int }
  | Deadline_expired
  | Not_applicable of string

val skip_message : skip_reason -> string
(** One-line human rendering of a {!skip_reason}, as it appears in a
    provenance trail (e.g. ["skipped (deadline expired)"] without the
    prefix — {!pp_attempt} adds the framing). *)

type failure =
  | Deadline  (** The cancellation probe fired mid-search. *)
  | No_finite_plan  (** The tier ran but produced no usable plan. *)

val failure_message : failure -> string
(** One-line human rendering of a {!failure}, same contract as
    {!skip_message}. *)

type status = Produced of float  (** Plan cost. *) | Aborted of failure | Skipped of skip_reason
(** What one tier did: produced a plan (with its cost), started but
    gave up, or was ruled out before running. *)

type bound = {
  upper : Blitz_engine.Registry.bound;
      (** The threshold the exact tier's pass ran at, and whose plan set
          it. *)
  threshold_skips : int;
      (** Subsets the pass skipped, up to an interruption, plus any
          rescue pass's (there is none while the bound holds). *)
}
(** The Section 6.4 bound an {!Exact} attempt pruned at. *)

type attempt = {
  tier : tier;
  status : status;
  elapsed_ms : float;
  bound : bound option;
      (** [Some] for an {!Exact} attempt that ran with a finite upper
          bound, [None] otherwise. *)
}
(** One cascade step with the wall clock it consumed (0 for skips). *)

type provenance = {
  winner : tier;
  winner_cost : float;
  attempts : attempt list;  (** In cascade order, up to and including the winner. *)
  total_ms : float;
}

val pp_attempt : Format.formatter -> attempt -> unit
(** One line: tier name, outcome, elapsed milliseconds. *)

val pp_provenance : Format.formatter -> provenance -> unit
(** The full trail in a vertical box, one {!pp_attempt} line per
    attempt, each followed by an indented line naming the bound, its
    source and the subsets it skipped when the attempt has a bound —
    what the CLI prints under [--degrade]. *)

val eligibility :
  ?session:Engine.t -> budget:Budget.t -> tier -> Catalog.t -> Join_graph.t -> skip_reason option
(** [None] when the tier may be attempted under the budget's current
    state; otherwise why it must be skipped.  The checks are read off
    the tier's registry-entry capability metadata ([Blitz_engine]) —
    size cap, table footprint, connectivity — not duplicated here, and
    a passed deadline.  {!Greedy} and {!Estimate_free} always are.
    With a [session] the memory ceiling charges a tier that draws its
    table from the session's arena the arena's would-be resident
    high-water mark ({!Blitz_core.Arena.bytes_after}) rather than the
    per-call table size: {!Exact} with the per-rank subset lists its
    pass takes, {!Dpccp}'s dense backend without them.  The session
    cache's resident bytes are added to the charge, so cache memory
    counts under the same ceiling as the DP table. *)

val run_tier :
  ?session:Engine.t ->
  budget:Budget.t ->
  seed:int ->
  tier ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  (Plan.t * float, failure) result * bound option
(** Run one tier in isolation (eligibility is the caller's business —
    see {!eligibility}), with the bound its pass pruned at ([None] but
    for an {!Exact} attempt with a finite bound).  [seed] feeds the
    hybrid tier's generator.  Cost-based tiers are dispatched through
    the [Blitz_engine] registry; {!Greedy} and {!Estimate_free} return
    their [Registry.heuristics] plan, computed here with the bound.  A
    [session] lends its arena to the DP tiers and, from
    {!Engine.default_crossover_n} relations up, the pool {!Engine.pool}
    hands out, on which the {!Exact} tier runs rank-parallel:
    bit-identical results either way, so tier semantics are unchanged.
    Exposed so tests can compare every tier's plan against the exact
    optimum. *)

val optimize :
  ?seed:int ->
  ?session:Engine.t ->
  budget:Budget.t ->
  fabricated:bool ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  (Plan.t * provenance, attempt list) result
(** Walk the cascade under the (already armed) budget: the cost-based
    tiers, then the heuristic ones in [Registry.heuristics]' order,
    computed at most once.  [fabricated] ({!Sanitize.fabricated_stats})
    runs no cost-based tier and puts {!Estimate_free} first.
    [Error attempts] — both heuristic plans cost NaN — still reports why
    every tier declined.  [session] is forwarded to every tier (see
    {!run_tier}) and to {!eligibility}.  The cascade never uses the
    session's cache functions, so a caller may run it inside
    {!Engine.cache_around}. *)
