(** The dynamic-programming table of Algorithm blitzsplit.

    One entry per nonempty subset of the relation set, indexed directly by
    the subset's bitset integer (Section 4.1).  Stored as a struct of
    arrays rather than an array of records so that each column is a flat,
    unboxed float (or int) array.  The split kernels compare operand
    [cost]s on every iteration and read [card] or [aux] only on the rarer
    [kappa''] evaluations, so the hot column packs eight subset costs per
    64-byte cache line.  Each value is stored exactly once.

    Columns (Sections 3.2 and 5.4):
    - [card]: (estimated) cardinality of the join over the subset;
    - [cost]: cost of the best plan found for the subset
      ([infinity] when no plan beat the threshold);
    - [best_lhs]: left operand set of the best split ([0] for singletons
      and infeasible entries);
    - [pi_fan]: the fan selectivity product of Section 5.3 (join
      optimization only; the Cartesian-product path never reads it, so
      the column can be left unallocated — see {!create});
    - [aux]: per-subset memo for the cost model ([c(1+log c)] for
      sort-merge, as the appendix suggests), written only under
      kappa_sm and [Opaque] models.  kappa_0's and kappa_dnl's memo is
      the identity, so their passes leave the column as they found it
      and every reader reads [card] instead. *)

module Relset = Blitz_bitset.Relset
module Plan = Blitz_plan.Plan

type t = private {
  n : int;
  card : float array;
  cost : float array;
  best_lhs : int array;
  pi_fan : float array;
  aux : float array;
}
(** Exposed read-only; the arrays themselves are mutated only by the
    optimizers (this library and the dpccp dense fold). *)

val max_relations : int
(** Hard cap on [n] (24): the table takes [5 * 8 * 2^n] bytes. *)

val create : ?with_pi_fan:bool -> int -> t
(** [create n] allocates the table for [n] relations.  With
    [~with_pi_fan:false] the fan column stays unallocated ([[||]]) —
    correct for Cartesian-product optimization, which never reads it,
    and 8 * 2^n bytes lighter.  Raises [Invalid_argument] when [n] is
    outside [\[1, max_relations\]]. *)

val has_pi_fan : t -> bool
(** Whether the fan column was allocated. *)

val capacity : t -> int
(** The n the backing buffers were allocated for.  [capacity t >= t.n];
    they differ when the table came out of an {!Arena} sized by a larger
    earlier query. *)

val estimate_bytes : ?with_pi_fan:bool -> n:int -> unit -> int
(** Bytes a table for [n] relations occupies: [40 * 2^n] (or [32 * 2^n]
    without the fan column — see {!create}): five (four) 8-byte columns.
    Saturates at [max_int]. *)

val view : t -> n:int -> t
(** [view t ~n] returns a view of [t]'s backing buffers sized for [n]
    relations — no allocation beyond the small record, and no write:
    slots [0, 2^n) hold whatever the last pass over the buffers left.
    Requires [1 <= n <= capacity t].  The basis of {!Arena} reuse.  A
    blitzsplit pass writes every slot it reads before reading it, except
    the fan column of a Cartesian-product pass and the [aux] column of a
    kappa_0 or kappa_dnl pass, which it never reads;
    dpccp's dense backend, which reads [cost] and [best_lhs] first,
    clears those two itself. *)

val add_pi_fan : t -> t
(** Return a view of [t] with the fan column allocated (capacity-sized,
    all 1.0), allocating it lazily if the table was created without one.
    The identity when the column is already present. *)

val size : t -> int
(** Number of slots, [2^n]. *)

val full_set : t -> Relset.t

(** {1 Reading entries} *)

val card : t -> Relset.t -> float
val cost : t -> Relset.t -> float
val best_lhs : t -> Relset.t -> Relset.t
val pi_fan : t -> Relset.t -> float

val is_feasible : t -> Relset.t -> bool
(** Whether a plan was recorded for the subset (its cost is finite). *)

val extract_plan : t -> Relset.t -> Plan.t option
(** Walk [best_lhs] links recursively (the table-consultation procedure
    of Section 3.1), producing the optimal plan for the given subset;
    [None] when the subset is infeasible under the threshold used. *)

val dump : ?names:string array -> t -> string
(** Render in the format of the paper's Table 1: one row per nonempty
    subset, ordered by subset size then lexicographically by members,
    with columns Relation Set / Cardinality / Best LHS / Cost.  Intended
    for small [n]. *)
