(** The resilient optimizer front door.

    [Guard.optimize] composes the pieces of this library into one entry
    point with a hard contract: {e for any input and any budget it
    returns [Ok] with a valid plan or a typed [Error] — it never raises
    and never exceeds its budget by more than one probe interval.}

    The pipeline is: {!Sanitize} validates (and under a lenient policy
    repairs) the raw statistics; {!Budget} arms the wall-clock deadline
    and checks the DP-table memory ceiling before allocation; {!Degrade}
    walks the tier cascade — exact, DPccp, hybrid, IKKBZ, greedy,
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
  | Internal of string  (** An escaped exception, demoted to data. *)

val error_message : error -> string
val pp_error : Format.formatter -> error -> unit

val optimize :
  ?budget:Budget.t ->
  ?session:Blitz_engine.Engine.t ->
  ?cascade:Degrade.tier list ->
  ?seed:int ->
  ?num_domains:int ->
  ?multiway:bool ->
  ?cache_tag:string ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  (outcome, error) result
(** Optimize already-constructed inputs under [budget] (default:
    unlimited).  The budget is re-armed on entry, so one [Budget.t] can
    be reused across calls.  With no deadline and default cascade the
    result matches [Blitzsplit.optimize_join] exactly — including with
    [num_domains > 1], which runs the DP tiers rank-parallel on that
    many domains with bit-identical results (see {!Degrade.run_tier}).
    [session] plugs a [Blitz_engine.Engine] session in — the way to run
    many guarded queries without per-query allocation: the DP tiers
    draw their table from its arena and, for queries of at least
    [Blitz_parallel.Parallel_blitzsplit.default_crossover_n] relations,
    run on its domain pool ([Blitz_engine.Engine.pool]), which a default
    session sizes to the machine's cores and spawns on the first such
    query.  When the runtime refuses those domains the tiers run
    sequentially, with the same answer.
    [multiway] asks capable tiers for n-ary AGM-costed plans (see
    {!Degrade.optimize}); incapable tiers ignore it, so the cascade
    stays valid end to end.  [cache_tag] partitions the session cache
    per caller (see [Blitz_engine.Engine.optimize]): the serving layer
    passes the tenant id, so a shared cache never replays one tenant's
    plan to another. *)

val optimize_input :
  ?budget:Budget.t ->
  ?session:Blitz_engine.Engine.t ->
  ?policy:Sanitize.policy ->
  ?cascade:Degrade.tier list ->
  ?seed:int ->
  ?num_domains:int ->
  ?multiway:bool ->
  ?cache_tag:string ->
  Cost_model.t ->
  relations:(string * float) list ->
  edges:(int * int * float) list ->
  unit ->
  (outcome, error) result
(** Optimize raw, untrusted statistics: sanitize under [policy]
    (default {!Sanitize.lenient}), then proceed as {!optimize}.  This is
    the entry point the chaos property suite drives. *)
