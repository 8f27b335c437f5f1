(** Resource budgets for one optimization: a wall-clock deadline and a
    memory ceiling on the [O(2^n)] DP table.

    The deadline is enforced through a cheap cancellation probe
    ({!interrupt}) that the core optimizers poll between subsets; the
    memory ceiling is enforced {e before} allocation by charging the
    table's estimated footprint ({!admits_bytes}), so an oversized query
    degrades to a table-free algorithm instead of exhausting the heap.  A budget is
    armed (its clock started) at {!create} and re-armed with {!start};
    the guard driver re-arms once on entry so every tier draws from the
    same allowance.

    Probes and expirations are published to [Blitz_obs.Metrics]
    ([blitz_budget_probes_total], [blitz_budget_expirations_total]);
    the expiry latch flips via one compare-and-set, so an expiration is
    counted exactly once per arming no matter how many domains race the
    deadline. *)

type t

val create : ?deadline_ms:float -> ?max_table_bytes:int -> unit -> t
(** Omitted components are unlimited.  Raises [Invalid_argument] on a
    non-positive deadline or ceiling. *)

val unlimited : unit -> t

val start : t -> unit
(** (Re-)arm the deadline clock at the current time and clear the
    expiry latch. *)

val max_table_bytes : t -> int option

val elapsed_ms : t -> float
(** Wall-clock milliseconds since the budget was last armed. *)

val expired : t -> bool
(** Whether the deadline has passed.  Expiry latches through an
    [Atomic.t] flag set exactly once per arming: the first probe (from
    any domain) to observe the deadline passed trips it, and every
    later probe — on any domain — returns [true] from the flag alone.
    This makes the probe safe to poll concurrently from a rank-parallel
    optimization's worker domains, with one clock read per poll until
    the trip and none after. *)

val interrupt : t -> unit -> bool
(** [interrupt t] is the cancellation probe to hand to
    [Blitzsplit.optimize_join ~interrupt] and friends — including a
    pass on a domain pool, which polls it from every worker domain (see
    {!expired} for why that is safe): a closure
    returning [true] once the deadline has passed.  One
    [Blitz_util.Clock] read per poll; the optimizers already rate-limit
    polling (every 64 subsets), so no further caching is needed. *)

val admits_bytes : t -> int -> bool
(** Whether a footprint of the given size fits under the ceiling.  For
    session (arena) use: charge [Arena.bytes_after] — the resident
    high-water mark the arena would hold after the query — rather than
    the per-call table size, so a session that already owns a large
    enough buffer is not double-charged for a small query, and a query
    that would grow the buffer is charged for the growth. *)
