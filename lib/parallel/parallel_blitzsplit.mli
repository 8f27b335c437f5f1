(** Rank-parallel Algorithm blitzsplit on OCaml 5 domains.

    The subset lattice decomposes by cardinality ("rank"): every subset
    of rank [k] depends only on strictly smaller subsets — the fan
    recurrence of Section 5.4 reads ranks 2 and [k-1], and the
    [O(3^n)] split loop reads the cost/cardinality columns of proper
    subsets, all of rank [< k].  Processing ranks in order with a full
    barrier between them, and splitting each rank's Gosper-enumerated
    subsets into contiguous chunks balanced dynamically over a domain
    pool, is therefore an exact reimplementation of the sequential DP:

    {b Determinism guarantee.}  Each table entry is a pure function of
    lower-rank entries, and the per-subset split scan visits candidate
    splits in the same fixed successor order as the sequential code
    (ties broken by first-strict-improvement, identically).  The
    resulting cost {e and} extracted plan are bit-identical to the
    sequential optimizer's on every pool — scheduling affects
    only which domain writes an entry, never its value.  At a finite
    threshold under kappa_sm both drivers give each subset the same
    completion-bounded threshold, so thresholded passes agree too.  Counters are
    per-domain and merged at the end; being sums of per-subset events,
    the totals are also exactly the sequential counts.

    Interruption: the deadline/cancellation probe is polled by every
    domain each 64 subsets it processes (the sequential cadence) and
    once by the coordinator at each rank barrier; a [true] return trips
    a shared [Atomic.t] stop flag, remaining chunks bail at their next
    check, and {!Blitzsplit.Interrupted} is raised after the barrier.
    The probe closure must therefore tolerate calls from any domain
    ([Budget.interrupt] in [blitz_guard] does). *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Blitzsplit = Blitz_core.Blitzsplit
module Counters = Blitz_core.Counters
module Arena = Blitz_core.Arena

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the default session width. *)

val default_crossover_n : int
(** The relation count (14) from which [Blitz_engine.Engine.pool] hands
    a query its session's pool.  Below it the rank barriers and chunk
    scheduling eat most of the win (two domains on two cores: 0.85x at
    n = 12, 1.12x at n = 13, 1.20x at n = 14, 1.55x and up from
    n = 15), and the results are
    bit-identical either way.  The drivers here do not consult it: they
    run on whatever pool they are handed. *)

val run :
  ?pool:Pool.t ->
  graph_opt:Join_graph.t option ->
  ?arena:Arena.t ->
  ?counters:Counters.t ->
  ?threshold:float ->
  ?interrupt:(unit -> bool) ->
  Cost_model.t ->
  Catalog.t ->
  Blitzsplit.t
(** Optimize the join ([graph_opt = Some g]) or Cartesian product
    ([None]) of all catalog relations.  With [pool] the lattice is
    filled rank-parallel on it, at any [n] (a 1-domain pool runs the
    rank order inline); without one this is exactly the sequential
    {!Blitzsplit.optimize_join}/{!Blitzsplit.optimize_product}.
    [?arena] draws the DP table from a session workspace
    ({!Blitz_core.Arena}) instead of a fresh allocation — the
    coordinator acquires it before workers start and the results stay
    bit-identical.  Raises {!Blitzsplit.Interrupted} when the probe
    fires, [Invalid_argument] on a non-positive threshold or a
    graph/catalog size mismatch. *)

val optimize_join :
  ?pool:Pool.t ->
  ?arena:Arena.t ->
  ?counters:Counters.t ->
  ?threshold:float ->
  ?interrupt:(unit -> bool) ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  Blitzsplit.t
(** {!run} with a join graph. *)

val optimize_product :
  ?pool:Pool.t ->
  ?arena:Arena.t ->
  ?counters:Counters.t ->
  ?threshold:float ->
  ?interrupt:(unit -> bool) ->
  Cost_model.t ->
  Catalog.t ->
  Blitzsplit.t
(** {!run} without predicates (Section 3); the table's fan column stays
    unallocated. *)

(** {1 Internals exposed for tests} *)

val gosper_next : int -> int
(** Next larger integer with the same popcount (Gosper's hack). *)

val unrank_subset : int array array -> k:int -> int -> int
(** [unrank_subset binom ~k m] is the [m]-th (0-based) [k]-subset in
    increasing bitset-integer (colex) order, via combinadic unranking
    against a {!binomial_table}. *)

val binomial_table : int -> int array array
(** [binomial_table n].(c).(j) = C(c, j) for [0 <= c, j <= n]. *)
