(** The resilient optimizer front door.

    [Guard.optimize] composes the pieces of this library into one entry
    point with a hard contract: {e for any input and any budget it
    returns [Ok] with a valid plan or a typed [Error] — it never raises
    and never exceeds its budget by more than one probe interval.}

    The pipeline is: {!Sanitize} validates (and under a lenient policy
    repairs) the raw statistics; {!Budget} arms the wall-clock deadline
    and checks the DP-table memory ceiling before allocation; {!Degrade}
    walks the tier cascade — exact, DPccp, hybrid, greedy,
    estimate-free — returning the first plan produced together with
    full provenance.  When the sanitizer had to {e fabricate}
    cardinalities ({!Sanitize.fabricated_stats}) and the caller pinned
    no cascade, the cost-based tiers are bypassed entirely in favour of
    {!Degrade.fabricated_cascade} — structure-only planning is the only
    honest option on made-up numbers.  {!Chaos} exists to attack this
    contract in tests. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

type outcome = {
  plan : Plan.t;
  cost : float;  (** [provenance.winner_cost], under the session cost model. *)
  provenance : Degrade.provenance;
  repairs : Sanitize.issue list;
      (** Defects the sanitizer repaired (empty for already-valid input). *)
  catalog : Catalog.t;  (** The sanitized inputs the plan refers to — *)
  graph : Join_graph.t;  (** relevant when repairs dropped edges. *)
  from_cache : bool;
      (** The plan came from the session's plan cache (no tier ran).
          Possible only with a cache-carrying [session] and an input the
          sanitizer accepted verbatim; cache participation is bypassed
          whenever repairs were made, so the chaos/sanitize paths can
          neither populate the cache nor be answered from it. *)
}

type error =
  | Invalid_input of Sanitize.issue list  (** Every irreparable defect, not just the first. *)
  | No_tier_produced of Degrade.attempt list
      (** Possible only with a custom cascade omitting the
          deadline-exempt tiers (greedy, estimate-free). *)
  | Multiway_retired
      (** [~multiway:true] was passed to {!optimize}: n-ary planning is
          gone, so no tier ran. *)
  | Internal of string  (** An escaped exception, demoted to data. *)

val error_message : error -> string

val optimize :
  ?budget:Budget.t ->
  ?session:Blitz_engine.Engine.t ->
  ?cascade:Degrade.tier list ->
  ?seed:int ->
  ?multiway:bool ->
  ?cache_tag:string ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  (outcome, error) result
(** Optimize already-constructed inputs under [budget] (default:
    unlimited).  The budget is re-armed on entry, so one [Budget.t] can
    be reused across calls.  With no deadline and default cascade the
    result matches [Blitzsplit.optimize_join] exactly.  Without a
    [session] every tier runs on the calling domain.  [session] plugs a
    [Blitz_engine.Engine] session in — the way to run many guarded
    queries without per-query allocation, and the only way to run the
    exact tier's split loops on several domains: the DP tiers draw their
    table from its arena and run on the pool [Blitz_engine.Engine.pool]
    hands out, which exists from [Blitz_engine.Engine.default_crossover_n]
    relations up in sessions created with more than one domain (a
    default session sizes it to the machine's cores) and spawns on the
    first such query.  The results are bit-identical on every width
    (see {!Degrade.run_tier}).  When the runtime refuses those domains
    the tiers run on the calling domain, with the same answer.
    [cache_tag] partitions the session cache per caller (see
    [Blitz_engine.Engine.cache_around]): the serving layer passes the
    tenant id, so a shared cache never replays one tenant's plan to
    another.  [multiway] is kept only for the benchmark ladder, which
    forwards the wire's [params.multiway] (always [false], since the
    decoder refuses [true]) until its forwarding is dropped: every plan
    is binary, and [~multiway:true] returns [Error Multiway_retired]
    without running a tier. *)

val optimize_input :
  ?budget:Budget.t ->
  ?session:Blitz_engine.Engine.t ->
  ?seed:int ->
  ?cache_tag:string ->
  Cost_model.t ->
  relations:(string * float) list ->
  edges:(int * int * float) list ->
  unit ->
  (outcome, error) result
(** Optimize raw, untrusted statistics: sanitize under
    {!Sanitize.lenient}, then proceed as {!optimize} with the default
    cascade (or {!Degrade.fabricated_cascade} when the sanitizer had to
    fabricate cardinalities).  This is the entry point the server and
    the chaos property suite drive. *)
