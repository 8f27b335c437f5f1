(** Session workspace: pooled DP-table buffers, the live-operand index
    of seeded passes, and counters.

    The blitzsplit table costs [O(2^n)] to allocate and initialize, which
    is the whole optimization for small queries — the paper's point is
    that the constants are tiny.  An arena owns one table buffer sized to
    the session's high-water-mark [n] and hands out reset views of it
    ({!Dp_table.reset_in_place}) instead of reallocating per query (and,
    for [Threshold]'s driver, per pass).  Correctness does not depend on
    the reset: every DP pass writes each slot before reading it.  The
    reset keeps what external table readers observe identical to a fresh
    allocation, which the test suite checks bit-for-bit.

    An arena is single-threaded state: one optimizer call may use it at a
    time (the rank-parallel optimizer coordinates its domains itself; the
    coordinator still acquires from the arena sequentially). *)

type t

val create : unit -> t
(** A fresh arena holding no buffers.  The first {!acquire} allocates. *)

val acquire : t -> ?with_pi_fan:bool -> int -> Dp_table.t
(** [acquire t n] returns a table for [n] relations backed by the arena's
    pooled buffers: reset in place when the capacity suffices, freshly
    allocated (growing the high-water mark) otherwise.  The fan column is
    sticky — once a join query needs it the buffer keeps it; a reused
    table may therefore report [has_pi_fan] even for [~with_pi_fan:false]
    callers, which never read it.  Raises [Invalid_argument] when [n]
    is outside [\[1, Dp_table.max_relations\]]. *)

val index : t -> Live_index.t
(** The arena's pooled live-operand index, created on first use.  A
    seeded DP pass starts it for its [n] ({!Live_index.start}), which
    grows its buffer to the high-water [n] and reuses it after that. *)

val counters : t -> Counters.t
(** The arena's reusable counter block.  Callers that want per-query
    counts reset it between queries ([Engine.optimize] does). *)

val resident_bytes : t -> int
(** Bytes currently held by the pooled table buffer and live-operand
    index (0 before the first acquire).  This is the high-water
    footprint a memory ceiling should charge for, not the per-call
    size. *)

val bytes_after : t -> ?with_pi_fan:bool -> ?with_index:bool -> n:int -> unit -> int
(** Resident footprint the arena would have after serving a query of [n]
    relations: the current buffers if they already suffice, the grown
    ones otherwise.  With [with_index] (the default) the call takes the
    live-operand index too, as the exact tier's seeded pass does, so the
    index is charged at [n] ({!Live_index.estimate_bytes}, 2 B per table
    slot) whether or not the arena holds one yet; [~with_index:false]
    charges only the index already resident.  What [Budget] checks
    against its ceiling when a session is in play.  Saturates at
    [max_int]. *)

val clear : t -> unit
(** Drop the pooled buffers (the next acquire reallocates). *)

val acquires : t -> int
(** Total {!acquire} calls served (diagnostic). *)

val grows : t -> int
(** How many of those had to allocate a table (diagnostic; 1 for a
    steady-state session).  The index grows with the table's high-water
    [n] and is not counted here. *)
