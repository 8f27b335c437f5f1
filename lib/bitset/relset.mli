(** Sets of relation names as machine-word bitsets.

    Section 4.1 of Vance & Maier: relation names are identified with small
    integer indexes, and a {e set} of relation names is the integer whose
    1-bits are the members' indexes.  All set primitives are then one or
    two machine instructions, and the set doubles as the index into the
    dynamic-programming table.

    This module also implements the paper's split-enumeration machinery
    (Section 4.2): the successor trick

    {v succ(l) = s land (l - s) v}

    which steps through all nonempty proper subsets of [s] in constant time
    per step without ever evaluating the dilation operator [delta]
    (which spreads the low bits of an integer into the positions of
    [s]).

    A value of type {!t} is an ordinary OCaml [int]; on 64-bit hosts up to
    {!max_width} relations are supported (the dynamic-programming table
    caps practical sizes far earlier). *)

type t = int
(** A set of relation indexes; bit [i] set means relation [i] is a
    member.  Exposed as [int] deliberately: the DP table is indexed by
    this integer, exactly as in the paper. *)

val max_width : int
(** Largest representable relation index plus one (62 on 64-bit hosts). *)

(** {1 Construction} *)

val empty : t
val singleton : int -> t
(** Raises [Invalid_argument] if the index is outside [\[0, max_width)]. *)

val full : int -> t
(** [full n] is [{0, ..., n-1}].  Raises [Invalid_argument] if [n] is
    outside [\[0, max_width\]]. *)

val of_list : int list -> t
val add : t -> int -> t

(** {1 Queries} *)

val is_empty : t -> bool
val mem : t -> int -> bool
val equal : t -> t -> bool
val disjoint : t -> t -> bool
val cardinal : t -> int
(** Population count, by the classic parallel bit-summing network. *)

val is_singleton : t -> bool

val min_elt : t -> int
(** Index of the lowest set bit.  Raises [Invalid_argument] on [empty].
    This is the [min S] of the paper's fan definition (Section 5.3). *)

val lowest_bit : t -> t
(** [lowest_bit s] is [s land (-s)]: the singleton containing [min_elt s],
    or [empty] when [s] is empty.  The paper computes [{min S}] this way
    as [delta_S 1] (Section 5.4). *)

(** {1 Boolean algebra} *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** {1 Member iteration} *)

val iter : (int -> unit) -> t -> unit
(** Members in increasing index order. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val to_list : t -> int list
val exists : (int -> bool) -> t -> bool

(** {1 Subset enumeration} *)

val iter_proper_subsets : (t -> unit) -> t -> unit
(** [iter_proper_subsets f s] applies [f] to each nonempty proper subset
    of [s], in dilated counting order — [2^(cardinal s) - 2] calls.
    This is the paper's split loop over ordered splits (Figure 1);
    [find_best_split] stops halfway, visiting each unordered split once. *)

val next_same_cardinality : t -> t
(** Gosper's hack: the next larger integer with the same population
    count.  Used by the size-driven baseline enumerator.  Returns a value
    that may exceed any enclosing universe; callers bound-check. *)

val iter_subsets_of_size : n:int -> k:int -> (t -> unit) -> unit
(** [iter_subsets_of_size ~n ~k f] applies [f] to all [k]-element subsets
    of [full n] in increasing integer order. *)

(** {1 Printing} *)

val to_string : ?names:string array -> t -> string
