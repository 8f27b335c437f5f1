(** Algorithm blitzsplit: exhaustive bushy join-order optimization with
    Cartesian products (Vance & Maier, SIGMOD 1996, Sections 3-5).

    Dynamic programming over every nonempty subset of the relation set.
    For each subset the best 2-way split is found by stepping through
    its nonempty proper subsets with the constant-time successor
    [succ(l) = s land (l - s)].

    Join predicates enter only through the cardinality computation: the
    fan recurrence of Section 5.3 folds every predicate selectivity into
    [card] with three floating multiplications per subset, so the split
    loop — the [O(3^n)] heart — is byte-for-byte the same for Cartesian
    products and for joins.  Plans containing Cartesian products are
    found exactly when they are optimal.

    One pass fills the table in two sweeps.  The first visits subsets in
    increasing bitset-integer order, which puts every proper subset of a
    set before it (Section 4.2), computes their properties and decides
    Section 6.4's skip test, which reads nothing else: a subset whose
    [kappa'] alone reaches the threshold is settled on the spot, and
    every other subset is kept on its rank's list ({!Live_index}).  The
    second runs the kept subsets' split loops rank by rank, on a domain
    pool when the caller hands one over and on the calling domain
    otherwise.  A subset of rank [k] reads only subsets of lower rank,
    so every slot, and every counter, comes out the same at every width.

    Time [O(3^n)]; space [O(2^n)] (the table, plus 4 B per subset for
    the lists).  An optional plan-cost threshold (Section 6.4) prunes:
    any subset whose best plan would cost at least the threshold is
    marked infeasible, which can make the whole optimization fail — see
    {!Threshold} for the multi-pass driver.  Under kappa_sm, whose
    [kappa'] is 0, a pass at a finite threshold also charges each proper
    subset what every plan completing it must pay
    ({!Split_loop.completion_threshold}): a pass still finds a
    plan exactly when the optimum is below its threshold, and then the
    same plan and cost bits as the unthresholded pass. *)

module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

type t = {
  table : Dp_table.t;
  counters : Counters.t;
  catalog : Catalog.t;
  graph : Join_graph.t;  (** Predicate-free for product optimization. *)
  model : Cost_model.t;
  threshold : float;  (** [infinity] when no threshold was applied. *)
}
(** The outcome of one optimization pass. *)

exception Interrupted
(** Raised out of an optimization when the [interrupt] probe fires.  The
    partially filled table is discarded; catch this to fall back to a
    cheaper algorithm (see the [blitz_guard] degradation cascade). *)

val optimize_join :
  ?pool:Blitz_parallel.Pool.t ->
  ?arena:Arena.t ->
  ?counters:Counters.t ->
  ?threshold:float ->
  ?interrupt:(unit -> bool) ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  t
(** Optimize the join of all catalog relations under the graph's
    predicates.  [pool] runs the split loops of each rank on its domains
    (any width, one included; the answer and every counter are the
    same as without it).  [arena] makes the DP table and the subset lists
    come out of a session workspace instead of a fresh allocation
    (bit-identical results — see {!Arena}); the returned [table] is a
    view of the arena's buffer, valid until the arena's next acquire.
    [counters] accumulates across calls when supplied (fresh otherwise);
    [threshold] defaults to [infinity].  [interrupt] makes the [O(3^n)]
    DP cancellable: it is polled before the table is touched, every 64
    subsets of each sweep, on every domain, and at every rank barrier,
    and a [true] return raises {!Interrupted}; on a pool it must
    tolerate calls from any domain.  Raises [Invalid_argument] on a
    non-positive threshold, when the graph's size differs from the
    catalog's, or when the catalog exceeds {!Dp_table.max_relations}
    relations. *)

val optimize_product :
  ?pool:Blitz_parallel.Pool.t ->
  ?arena:Arena.t ->
  ?counters:Counters.t ->
  ?threshold:float ->
  ?interrupt:(unit -> bool) ->
  Cost_model.t ->
  Catalog.t ->
  t
(** Section 3: pure Cartesian-product optimization — the specialized
    variant without the fan computation; the table's fan column is
    neither allocated nor read. *)

(** {1 Inspecting results} *)

val feasible : t -> bool
(** False only when a finite threshold pruned away every complete plan. *)

val best_cost : t -> float
(** Cost of the optimal plan, or [infinity] when infeasible. *)

val best_plan : t -> Plan.t option
(** The optimal plan, extracted from the table. *)

val best_plan_exn : t -> Plan.t
(** Like {!best_plan}; raises [Failure] when infeasible. *)

val subplan : t -> Relset.t -> Plan.t option
(** Optimal plan for any subset of the relations (the table holds them
    all). *)
