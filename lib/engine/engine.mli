(** A session-scoped optimizer front end.

    The paper's pitch is that blitzsplit's constants are tiny — but a
    fresh [O(2^n)] table allocation per query (plus counters, plus
    domain spawns) taxes exactly the small, fast queries the constants
    win on.  A session owns an {!Blitz_core.Arena} (high-water-mark
    DP-table buffer + reusable counters) and, for multi-domain
    sessions, one lazily spawned {!Blitz_parallel.Pool}, and runs any
    registered optimizer through them.  Sessions are multi-domain by
    default: exact queries at or above {!default_crossover_n}
    relations run on the machine's cores, sweep 1 (properties and
    §6.4's skip test) in four blocks and sweep 2 (the split loops) rank
    by rank.  Results are bit-identical to fresh-allocation runs for every optimizer and
    domain count (tested property).

    A session may also carry a {!Blitz_cache.Plan_cache}: any optimizer
    whose registry entry promises exactness then consults it before
    running (skipping the whole DP on a hit, with the cached plan
    rebased to the caller's relation numbering) and stores the plan and
    cost of completed optima.  A miss runs the optimizer cold.  The cache is shared
    by whatever sessions were created with it (it is domain-safe);
    omitting it at {!create} is the per-session opt-out.  Each session
    owns one preallocated fingerprint workspace, so cache participation
    adds no per-query allocation on the hit path.  Caching is bypassed
    whenever the caller passes an explicit [threshold] (such outcomes
    are caller-dependent) and for inexact optimizers.

    When [Blitz_obs.Metrics] is enabled, sessions publish per-query
    latency and plan-cost histograms ([blitz_engine_optimize_seconds],
    [blitz_engine_plan_cost]), a query counter, gauges tracking the
    arena's resident bytes / acquires / grows, and a
    [blitz_cache_lookup_seconds] histogram over fingerprint+lookup;
    disabled, the instrumentation is a single atomic branch per query.

    Sessions are single-threaded: one optimize call at a time. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Arena = Blitz_core.Arena
module Counters = Blitz_core.Counters
module Pool = Blitz_parallel.Pool
module Plan_cache = Blitz_cache.Plan_cache

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()]: the default session width. *)

val default_crossover_n : int
(** The relation count from which {!pool} hands a query its session's
    pool.  Below it the rank barriers and chunk scheduling cost more
    than spreading the split loops buys; the answer is the same bits
    either way. *)

type t

val create :
  ?model:Cost_model.t -> ?num_domains:int -> ?seed:int -> ?cache:Plan_cache.t -> unit -> t
(** [model] defaults to [kdnl], [num_domains] to
    {!recommended_domains} (the runtime's recommended count; 1 on a
    single-core host), [seed] to 1.
    Pass [~num_domains:1] for a one-domain session: the server does,
    one domain per worker being its parallelism.  The width is set here
    and only here: no optimizer, cascade or guard call takes one, and a
    DP pass runs on a pool only when a session hands it one.  Nothing is allocated
    up front: the first query sizes the arena, and the domain pool
    spawns on the first query that runs on it (see
    {!pool}).  [cache] plugs a (possibly shared) plan cache into the
    session; no cache means no lookups and no stores.  Raises
    [Invalid_argument] when [num_domains] is outside [1, 128]. *)

val close : t -> unit
(** Shut the pool down (if spawned) and drop the arena's buffers.
    Subsequent {!optimize} calls raise [Invalid_argument].  A session
    that ran a large query and is never closed keeps its parked worker
    domains until the process exits. *)

val with_session :
  ?model:Cost_model.t -> ?num_domains:int -> ?seed:int -> ?cache:Plan_cache.t -> (t -> 'a) -> 'a
(** Bracketed {!create}/{!close}.  A supplied [cache] is left intact at
    close (it may be shared with other sessions). *)

val optimize :
  ?optimizer:string ->
  ?threshold:float ->
  ?growth:float ->
  t ->
  Registry.problem ->
  Registry.outcome
(** Run one query through the session.  [optimizer] names a registry
    entry (default ["exact"]); [threshold] and [growth] become the
    ctx's, so ["exact"] runs Section 6.4's driver from that threshold
    (see {!Registry.ctx}).  A session cache takes part when the entry's caps are
    [exact] and no [threshold] is given; a hit reports one pass at an
    infinite threshold, as every stored entry ran.  The session's
    counters are reset first, so the outcome's counters are per-query;
    the outcome's [table] aliases the arena buffer and is only valid
    until the next call.  May raise whatever the entry itself raises on
    caps violations. *)

val optimize_many :
  ?optimizer:string ->
  ?interrupt:(unit -> bool) ->
  t ->
  Registry.problem Seq.t ->
  Registry.outcome list
(** Stream a batch of problems through the session under one interrupt
    — the serving shape for repeated-query traffic: one table buffer,
    one counter block, one pool for the whole batch.  Outcomes are
    detached (no live table views; counters copied) and returned in
    input order.  When [interrupt] fires mid-batch the completed prefix
    is returned rather than an exception — callers that need to know
    can compare lengths. *)

(** {1 Session internals (for drivers building their own ctx)} *)

val num_domains : t -> int
val arena : t -> Arena.t

val pool : t -> n:int -> Pool.t option
(** The pool an [n]-relation query runs on: the one place that decides
    whether a DP pass spreads its split loops over domains, since the
    driver does so exactly when handed a pool.  [None] for
    single-domain and closed sessions and below {!default_crossover_n},
    where rank barriers cost more than they buy; otherwise the session's
    pool, spawned by the first such call.  Also [None] when the runtime
    refuses the domains (it caps a process at 128): the query then runs
    on the calling domain with the same answer, and the next call tries
    again.  Never raises. *)

val counters : t -> Counters.t
(** The arena's counter block (reset at each {!optimize}). *)

val cache : t -> Plan_cache.t option

val cache_find :
  ?cache_tag:string -> t -> optimizer:string -> Registry.problem -> Plan_cache.hit option
(** Consult the session's cache directly (no optimizer run): fingerprint
    the problem under the session model into the session scratch and
    look it up under the given optimizer name.  [None] when the session
    has no cache or on a miss.  [cache_tag] decorates the key as in
    {!cache_around}. *)

val cache_around :
  ?model:Cost_model.t ->
  ?cache_tag:string ->
  t ->
  optimizer:string ->
  Registry.problem ->
  hit:(Plan_cache.hit -> 'a) ->
  miss:(unit -> 'a * (Blitz_plan.Plan.t * float) option) ->
  'a
(** One cache round around an optimizer the caller runs itself (the
    Guard driver's cascade): the same round {!optimize} runs around a
    registry entry.  The problem is fingerprinted into the session
    scratch once and looked up under [optimizer]; a hit goes to [hit].
    On a miss, [miss ()] runs and its result is returned; the plan and
    cost it returns alongside are stored under [optimizer] from the
    same fingerprint, unless the cost is not finite.  [miss] must not
    use this session's cache functions, since the scratch still holds
    the fingerprint; callers must only return true optima for that
    optimizer, found by one unthresholded pass.  Without a cache, just
    [miss ()].  [model] (default the session model) is the cost model
    the problem is keyed under.  [cache_tag] partitions the cache per
    caller: lookups and stores run under [<optimizer>"@"<tag>], so
    callers serving mutually-untrusting tenants from one shared cache
    never replay one tenant's plan to another ([Blitz_serve] keys by
    tenant id). *)

val ctx :
  ?interrupt:(unit -> bool) ->
  ?threshold:float ->
  ?counters:Counters.t ->
  n:int ->
  t ->
  Registry.ctx
(** The registry ctx {!optimize} uses for an [n]-relation query (before
    it sets [growth]), exposed so callers can dispatch registry entries
    through the session themselves.  It carries [pool t ~n]: the exact
    entry runs on that pool when there is one and on the calling domain
    otherwise. *)
