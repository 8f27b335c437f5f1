(** DPccp: connectivity-pruned exact bushy DP (no Cartesian products).

    The DP driver over {!Ccp_enum}'s csg-cmp pairs.  Where blitzsplit
    spends [O(3^n)] split-loop iterations regardless of the join graph,
    this driver does exactly one fold per csg-cmp pair — [(n^3 - n)/6]
    on chains, polynomial on every bounded-degree topology — at the
    price of excluding plans containing Cartesian products.  On sparse
    graphs that trades an exponent for (usually) nothing: the optimum
    rarely crosses an empty edge when predicates are selective.

    {b Two backends.}
    - {e Dense} ([n <= dense_limit]): the pooled blitzsplit
      {!Blitz_core.Dp_table} (arena-reusable), with cardinalities filled
      by the very same fan-recurrence sweep the exact optimizer runs, in
      the same order.  Consequence, checked by the test suite: whenever
      blitzsplit's optimal plan is product-free, the cost returned here
      is {e bitwise equal} to blitzsplit's; otherwise it is [>=].
    - {e Sparse} ([n > dense_limit], up to {!max_relations}): hash-indexed
      columns storing connected sets only, so memory follows the csg
      count (polynomial on sparse graphs) instead of [2^n] — this is
      what pushes chains past [n = 24] where the dense table tops out.
      Cardinalities are computed canonically per set (deterministic, but
      not bitwise-matched to the recurrence).

    On a disconnected join graph the product-free plan space contains no
    complete plan: the result carries [plan = None], [cost = infinity].
    The registry refuses dispatch upfront via the [connected_only]
    capability. *)

module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Arena = Blitz_core.Arena
module Counters = Blitz_core.Counters
module Dp_table = Blitz_core.Dp_table

type backend = Dense | Sparse

type t = {
  plan : Plan.t option;  (** [None] iff the graph is disconnected. *)
  cost : float;  (** Cost of [plan]; [infinity] when [None]. *)
  table : Dp_table.t option;  (** The DP table (dense backend only). *)
  connected_sets : int;
      (** Connected sets materialized (singletons included) — the
          [O(2^n)]-vs-polynomial space story, equal to the number of
          connected subgraphs of the join graph. *)
  ccp_pairs : int;
      (** Csg-cmp pairs folded — the work metric to compare against
          blitzsplit's [3^n]-ish split-loop iterations. *)
  backend : backend;
}

val dense_limit : int
(** Largest [n] the [`Auto] backend serves from the dense table (20). *)

val max_relations : int
(** Hard cap on [n] for the sparse backend ({!Relset.max_width}). *)

val estimate_bytes : n:int -> int
(** Lower-bound memory estimate for capability metadata: the dense table
    up to {!dense_limit}; beyond it the sparse store's footprint follows
    the topology-dependent connected-set count, not [n] alone. *)

val optimize :
  ?arena:Arena.t ->
  ?counters:Counters.t ->
  ?interrupt:(unit -> bool) ->
  ?backend:[ `Auto | `Dense | `Sparse ] ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  t
(** Optimal product-free bushy plan.  [arena] pools the dense table
    exactly as for {!Blitz_core.Blitzsplit}; [counters] accumulates
    [ccp_pairs] (and improvement/kappa'' tallies) across calls;
    [interrupt] is polled every 1024 pairs and raises
    {!Blitz_core.Blitzsplit.Interrupted} — the degradation cascade
    catches it like any other exact-tier timeout.  [`Dense] forces the
    table backend (requires [n <= Dp_table.max_relations]); [`Sparse]
    forces the hash-store; [`Auto] (default) switches at
    {!dense_limit}.  Raises [Invalid_argument] on a catalog/graph size
    mismatch or [n > max_relations]. *)
