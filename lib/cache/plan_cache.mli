(** A domain-safe, sharded LRU cache of optimal join plans.

    Entries are keyed by the {!Fingerprint} canonical form of the
    problem (plus the optimizer name, since different registry entries
    make different promises), so structurally identical queries hit
    regardless of how the caller numbered its relations.  Plans are
    stored in canonical index space and rebased to the caller's
    numbering on the way out; a hit is declared only after full
    canonical-form equality, never on hash agreement alone, so a
    collision can cost a miss but never serve a wrong plan.

    Sharding: entries are distributed over [shards] independent
    mutex-protected LRU lists by fingerprint hash, so concurrent
    sessions on different domains contend only when their queries land
    on the same shard.  Each shard owns [max_bytes / shards] of the
    byte budget and evicts from its own LRU tail; {!resident_bytes} is
    what a [Budget] should charge against its table ceiling.  The
    entries are all the cache holds: nothing it keeps escapes that
    budget.

    Statistics are kept per shard under the shard lock (exact, and
    available even when [Blitz_obs.Metrics] is disabled) and mirrored
    to the process-wide metrics [blitz_cache_hits_total],
    [blitz_cache_misses_total], [blitz_cache_insertions_total],
    [blitz_cache_evictions_total] and [blitz_cache_rebases_total]. *)

module Plan = Blitz_plan.Plan

type t

val create : ?shards:int -> ?max_bytes:int -> unit -> t
(** [shards] (default 8) is rounded up to a power of two; [max_bytes]
    (default 64 MiB) is the whole-cache budget, split evenly across
    shards.  Raises [Invalid_argument] on non-positive values. *)

val max_bytes : t -> int
(** The configured whole-cache byte budget (compare {!resident_bytes}
    for current occupancy). *)

type hit = {
  plan : Plan.t;  (** Rebased to the caller's relation numbering. *)
  cost : float;
  rebased : bool;
      (** The stored labeling differed from the caller's — the plan was
          renumbered on the way out. *)
}

val find : t -> Fingerprint.scratch -> optimizer:string -> hit option
(** Look up the problem last {!Fingerprint.compute}d into the scratch.
    A hit refreshes the entry's LRU position. *)

val store : t -> Fingerprint.scratch -> optimizer:string -> plan:Plan.t -> cost:float -> unit
(** Insert the plan and cost of a cold optimization ([plan] in the
    caller's numbering; it is canonized for storage).  If an equal entry is
    already resident, its LRU position is refreshed and nothing is
    inserted.  Callers must not store non-finite costs or non-optimal
    plans. *)

val resident_bytes : t -> int
(** Current estimated footprint of all shards' entries — the number a
    [Budget] memory ceiling should charge. *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  rebases : int;  (** Hits served under a different labeling. *)
  shape_hits : int;
  band_hits : int;
      (** [shape_hits] and [band_hits] are always 0.  They are kept only
          because the benchmark in [ladder/] builds [stats] records field
          by field; its next revision drops them. *)
  entries : int;
  bytes : int;
}

val stats : t -> stats
(** Exact totals across shards (reads take each shard lock briefly). *)

val clear : t -> unit
(** Drop every entry; statistics keep accumulating. *)
