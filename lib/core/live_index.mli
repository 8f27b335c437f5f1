(** The live-operand index of a seeded (§6.4) DP pass.

    At a finite threshold most subsets finish dead (cost [infinity]),
    yet the split walk of every surviving subset still visits all of its
    left operands.  A left operand never holds its subset's top relation,
    so it never holds relation [n - 1]; this index lists, per rank, the
    subsets that finished live (cost below [infinity]) and do not hold
    relation [n - 1], in increasing order.  {!Split_loop} reads it to
    price only live operands: for a subset [S] of rank [k], with [b] the
    top relation of [S] without its own top relation, the candidates are
    the indexed subsets of ranks [1 .. k-1] below [2^(b+1)], and [S]
    scans them instead of walking when their count, [cum.(b * stride +
    k)], is below the walk's [2^(k-1) - 1].

    The sequential driver appends each subset as it finishes ({!note})
    and closes the counts below each power of two as its numeric order
    passes it ({!seal}); the rank-parallel driver has its workers fill
    one slot per subset of a rank ({!stage}) and compacts the rank after
    its barrier ({!close_rank}).  Every subset below [2^(b+1)] precedes
    [S] in both orders, so both drivers read the same counts and scan
    the same entries in the same order.

    Entries are 4-byte subsets in one buffer of [2^(n-1)] slots, rank
    [r]'s region holding at most [C(n-1, r)] of them.  {!Arena} pools
    the buffer across passes and charges it to the memory ceiling. *)

type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  mutable on : bool;  (** Whether a pass is filling the index. *)
  mutable n : int;  (** Relations of the current pass. *)
  mutable ids : buf;  (** The entries, region by region. *)
  region : int array;  (** [region.(r)]: where rank [r]'s region starts. *)
  len : int array;  (** [len.(r)]: entries in rank [r]'s region. *)
  cum : int array;
      (** [cum.(b * stride + k)]: entries of ranks [1 .. k-1] below
          [2^(b+1)], once every subset below [2^(b+1)] (sequential) or
          every subset of rank [< k] (rank-parallel) has finished. *)
}

val stride : int
(** Row length of [cum]: [Dp_table.max_relations + 1]. *)

val off : t
(** The inert index: never on, so every subset walks.  {!start} refuses
    it. *)

val create : unit -> t
(** A fresh index holding no buffer; {!start} sizes it. *)

val start : t -> n:int -> all_singletons:bool -> unit
(** Turn the index on for a pass over [n] relations, growing the buffer
    to [2^(n-1)] slots if needed.  Registers relation 0 and closes the
    counts below 2.  [~all_singletons:true] (the rank-parallel driver)
    registers every other singleton but relation [n - 1] too, so rank 1
    is complete before rank 2 runs.  Raises [Invalid_argument] on
    {!off}. *)

val hub : t -> int
(** [2^(n-1)], the singleton of relation [n - 1], when on; 0 when off.
    The subsets below it are the ones free of relation [n - 1]. *)

val note : t -> int -> unit
(** Sequential driver, after subset [s] finished live (cost below
    [infinity]) and below {!hub}: append it.  The driver tests both, so
    the other subsets cost no call. *)

val seal : t -> int -> unit
(** Sequential driver, at a power of two [p = 2^(b+1) <= 2^(n-1)]: every
    subset below [p] has finished, so close the counts for [b], then
    register the singleton [p] unless it is relation [n - 1].  A no-op
    when off. *)

val stage : t -> Dp_table.t -> k:int -> m:int -> int -> unit
(** Rank-parallel worker, after subset [s], the [m]-th subset of rank
    [k] in increasing order, finished: record it in slot [m] of rank
    [k]'s region, [s] when live and an empty mark otherwise.  The
    subsets holding relation [n - 1] come last in their rank and have no
    slot.  Distinct [m] write distinct slots.  A no-op when off. *)

val close_rank : t -> int -> unit
(** Rank-parallel coordinator, after rank [k]'s barrier: compact its
    region in order and extend the counts to rank [k + 1].  A no-op when
    off. *)

val estimate_bytes : n:int -> int
(** Bytes of the buffer for [n] relations: [4 * 2^(n-1)], 2 B per
    DP-table slot.  Saturates at [max_int]. *)

val resident_bytes : t -> int
(** Bytes the buffer holds now (0 before the first {!start}). *)

val top_table : Bytes.t
(** The highest member of each nonempty 12-bit subset, as a byte: two
    lookups find it for any subset of at most {!Dp_table.max_relations}
    relations. *)
