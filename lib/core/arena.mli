(** Session workspace: pooled DP-table buffers, the per-rank subset
    lists of a DP pass, and counters.

    The blitzsplit table costs [O(2^n)] to allocate and initialize, which
    is the whole optimization for small queries — the paper's point is
    that the constants are tiny.  An arena owns one table buffer sized to
    the session's high-water-mark [n] and hands out views of it
    ({!Dp_table.view}) instead of reallocating per query (and, for
    [Threshold]'s driver, per pass).  A view is not cleared: every
    blitzsplit pass writes each slot it reads before reading it, so a
    warm pass computes the same bits as one on a fresh table, which the
    test suite checks on poisoned buffers.  Slots a pass does not write
    (those past its [2^n], and a product pass's fan column) keep what
    earlier passes left.

    An arena is single-threaded state: one optimizer call may use it at a
    time (a pass on a domain pool acquires from the arena on the calling
    domain before its workers run). *)

type t

val create : unit -> t
(** A fresh arena holding no buffers.  The first {!acquire} allocates. *)

val acquire : t -> ?with_pi_fan:bool -> int -> Dp_table.t
(** [acquire t n] returns a table for [n] relations backed by the arena's
    pooled buffers: a view of them, as the last pass left them, when the
    capacity suffices; freshly allocated (growing the high-water mark)
    otherwise.  The fan column is sticky — once a join query needs it
    the buffer keeps it; a reused table may therefore report
    [has_pi_fan] even for [~with_pi_fan:false] callers, which never read
    it.  Raises [Invalid_argument] when [n] is outside
    [\[1, Dp_table.max_relations\]]. *)

val index : t -> Live_index.t
(** The arena's pooled subset lists and live-operand index, created on
    first use.  Every blitzsplit pass starts them for its [n]
    ({!Live_index.start}), which grows the buffer to the high-water [n]
    and reuses it after that. *)

val counters : t -> Counters.t
(** The arena's reusable counter block.  Callers that want per-query
    counts reset it between queries ([Engine.optimize] does). *)

val resident_bytes : t -> int
(** Bytes currently held by the pooled table buffer and subset lists (0
    before the first acquire).  This is the high-water footprint a
    memory ceiling should charge for, not the per-call size. *)

val bytes_after : t -> ?with_index:bool -> n:int -> unit -> int
(** Resident footprint the arena would have after serving a join query
    of [n] relations (its table holds the fan column): the current
    buffers if they already suffice, the grown ones otherwise.  With [with_index] (the default) the call is a
    blitzsplit pass, which takes the subset lists too, so they are
    charged at [n] ({!Live_index.estimate_bytes}, 4 B per table slot)
    whether or not the arena holds them yet; [~with_index:false]
    (dpccp) charges only the lists already resident.  What [Budget]
    checks against its ceiling when a session is in play.  Saturates at
    [max_int]. *)

val clear : t -> unit
(** Drop the pooled buffers (the next acquire reallocates). *)

val acquires : t -> int
(** Total {!acquire} calls served (diagnostic). *)

val grows : t -> int
(** How many of those had to allocate a table (diagnostic; 1 for a
    steady-state session).  The subset lists grow with the table's
    high-water [n] and are not counted here. *)
