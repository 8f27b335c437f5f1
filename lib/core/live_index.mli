(** The per-rank subset lists of a DP pass, and the live-operand index
    of a seeded (§6.4) pass, in one buffer.

    {!Blitzsplit} fills its table in two sweeps.  The first
    ({!Split_loop.sweep}) computes every subset's properties in numeric
    order and settles the subsets §6.4 skips; it appends every other
    subset, one whose split loop must run, to its rank's list: the
    entry at [region.(k) + len.(k)], then [len.(k)] grows by one.  So
    each list is in increasing order.  The second runs the split loops
    of the kept subsets rank by rank, reading the lists ({!length},
    {!get}).

    At a finite threshold most subsets finish dead (cost [infinity]),
    yet the split walk of every surviving subset still visits all of its
    left operands.  A left operand never holds its subset's top relation,
    so it never holds relation [n - 1].  With the index on ({!start}
    [~index:true]), each rank's list becomes, once the rank is done, the
    subsets of that rank that finished live (cost below [infinity]) and
    do not hold relation [n - 1], in increasing order: a sub-list of the
    kept list, compacted in place ({!stage}, {!close_rank}).  Rank 1
    lists the singletons but relation [n - 1] from the start.
    {!Split_loop} reads the index to price only live operands: for a
    subset [S] of rank [k], with [b] the top relation of [S] without its
    own top relation, the candidates are the indexed subsets of ranks
    [1 .. k-1] below [2^(b+1)], and [S] scans them instead of walking
    when their count, [cum.(b * stride + k)], is below the walk's
    [2^(k-1) - 1].  Every rank below [k] is done before rank [k] starts,
    on one domain or on many, so every width reads the same counts and
    scans the same entries in the same order.

    Entries are 4-byte subsets in one buffer of [2^n] slots, rank [r]'s
    region holding at most [C(n, r)] of them.  {!Arena} pools the buffer
    across passes and charges it to the memory ceiling.  A pass writes
    every entry it reads, so the buffer is never cleared. *)

type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  mutable on : bool;  (** Whether the pass keeps the live-operand index. *)
  mutable n : int;  (** Relations of the current pass. *)
  mutable ids : buf;  (** The entries, region by region. *)
  region : int array;  (** [region.(r)]: where rank [r]'s region starts. *)
  len : int array;
      (** [len.(r)]: entries in rank [r]'s list: the kept subsets until
          the rank is done, then, with the index on, its live ones. *)
  cum : int array;
      (** [cum.(b * stride + k)]: index entries of ranks [1 .. k-1]
          below [2^(b+1)], once every subset of rank [< k] has
          finished. *)
}

val stride : int
(** Row length of [cum]: [Dp_table.max_relations + 1]. *)

val off : t
(** The inert index: never on, so every subset walks.  {!start} refuses
    it. *)

val create : unit -> t
(** Fresh lists holding no buffer; {!start} sizes them. *)

val start : t -> n:int -> index:bool -> unit
(** Empty every list for a pass over [n] relations, growing the buffer
    to [2^n] slots if needed.  [~index:true] turns the live-operand
    index on: rank 1 then lists every singleton but relation [n - 1],
    and the counts below rank 2 are closed.  Raises [Invalid_argument]
    on {!off} or when [n] is outside [\[1, Dp_table.max_relations\]]. *)

val length : t -> int -> int
(** [length t k]: the subsets of rank [k] kept so far. *)

val get : t -> int -> int -> int
(** [get t k m]: the [m]-th subset of rank [k]'s list, [m < length t k]. *)

val stage : t -> Dp_table.t -> k:int -> m:int -> int -> unit
(** Sweep 2, after the split loop of subset [s], the [m]-th entry of
    rank [k]'s list, finished: with the index on, mark the entry empty
    unless [s] finished live and does not hold relation [n - 1].
    Distinct [m] write distinct slots, so the domains of one rank may
    stage concurrently.  A no-op when the index is off. *)

val close_rank : t -> int -> unit
(** After rank [k]'s split loops, before any of rank [k + 1] runs:
    compact the entries {!stage} left in rank [k]'s list, in order, and
    extend the counts to rank [k + 1].  A no-op when the index is
    off. *)

val estimate_bytes : n:int -> int
(** Bytes of the buffer for [n] relations: [4 * 2^n], 4 B per DP-table
    slot.  Saturates at [max_int]. *)

val resident_bytes : t -> int
(** Bytes the buffer holds now (0 before the first {!start}). *)

val top_table : Bytes.t
(** The highest member of each nonempty 12-bit subset, as a byte: two
    lookups find it for any subset of at most {!Dp_table.max_relations}
    relations. *)
