(** The concurrent optimizer server: OCaml 5 domains around a small
    [Unix.select] event loop, stdlib only.

    One domain owns the event loop — accepting connections, framing
    newline-delimited requests, decoding them ({!Protocol}), admitting
    them through the tenant's {!Quota} bucket, and writing responses.
    [workers] further domains each own one {!Blitz_engine.Engine}
    session (all sharing the server's plan cache) and drain a bounded
    work queue, running every query through {!Blitz_guard.Guard} under
    a per-request [Budget] built from the tenant's limits, with the
    tenant name as [cache_tag] so the shared cache stays partitioned
    per tenant.

    {b Overload sheds through the cascade, not the floor.}  When a
    worker dequeues a job and finds [shed_queue] or more requests still
    waiting behind it, the request's deadline is clamped to
    [shed_deadline_ms]: the Degrade cascade then answers with the
    cheaper of its heuristic plans (greedy, estimate-free) in
    microseconds, the queue drains, and {e every} response still carries
    a plan plus full provenance — [shed: true] and the winning tier —
    rather than an error or a dropped connection.  Only a hard bound of 4,096 queued
    requests (memory protection, a constant) answers [overloaded]
    without optimizing.

    The same listening socket answers Prometheus scrapes: a connection
    whose first bytes are [GET ] is treated as HTTP/1.0, and
    [GET /metrics] returns [Blitz_obs.Metrics.to_prometheus] —
    request counters, latency histograms, queue depth, shed and quota
    counters — then closes.

    Responses to loop-answered requests (health, stats, quota and
    decode errors) can overtake in-flight optimize responses on the
    same connection; the [id] field is the correlator.  A single-worker
    server answers optimize requests in arrival order. *)

module Cost_model = Blitz_cost.Cost_model
module Plan_cache = Blitz_cache.Plan_cache

type config = {
  host : string;  (** Bind address, default ["127.0.0.1"]. *)
  port : int;  (** 0 picks an ephemeral port (see {!port}). *)
  workers : int;  (** Optimizer domains, default 1. *)
  tenants : Tenant.t list;
      (** The default tenant is appended when no entry names it. *)
  model : Cost_model.t;
  cache : Plan_cache.t option;  (** Shared across all worker sessions. *)
  shed_queue : int;
      (** Queue depth at which shedding starts, default 16. *)
  shed_deadline_ms : float;
      (** Deadline clamp while shedding, default 5 ms. *)
  max_requests : int option;
      (** Exit after this many optimize/explain responses (including
          quota and input errors) — deterministic teardown for tests
          and benchmarks. *)
  seed : int;  (** Forwarded to every Guard call (hybrid tier RNG). *)
}

val config :
  ?host:string ->
  ?port:int ->
  ?workers:int ->
  ?tenants:Tenant.t list ->
  ?model:Cost_model.t ->
  ?cache:Plan_cache.t ->
  ?shed_queue:int ->
  ?shed_deadline_ms:float ->
  ?max_requests:int ->
  ?seed:int ->
  unit ->
  config
(** Defaults as documented on {!config}; [model] defaults to the
    engine default (kdnl), [cache] to a fresh 4 MiB
    {!Plan_cache.create}.  Tenants without [table-mb] plan under a
    256 MiB DP-table ceiling (a constant): an unbounded server is one
    [n = 40] request away from the OOM killer.  Raises
    [Invalid_argument] on non-positive [workers], [shed_queue] or
    [shed_deadline_ms]. *)

type t

val start : config -> t
(** Bind, listen, spawn the loop and worker domains, return.  The
    socket is accepting when this returns — {!port} is ready to hand to
    a client.  Enables [Blitz_obs.Metrics] and ignores [SIGPIPE]. *)

val port : t -> int
(** The bound port (the ephemeral one when [config.port] was 0). *)

val wait : t -> unit
(** Block until the server exits on its own ([max_requests] reached).
    Joins every domain; idempotent. *)

val stop : t -> unit
(** Ask the loop to exit, then {!wait}.  Queued work is finished and
    flushed first. *)
