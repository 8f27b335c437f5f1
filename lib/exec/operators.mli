(** Physical join operators.

    Three classic dyadic equi-join implementations over row-major integer
    arrays.  All produce the same multiset of output rows (each output
    row is the left row with the right row appended); only their order —
    and their cost, which is what the paper's [kappa_sm] and [kappa_dnl]
    model — differs.  An empty key list makes every operator compute the
    Cartesian product. *)

type key = { left_col : int; right_col : int }
(** One equality condition between a left and a right column. *)

type work = {
  mutable tuple_visits : int;
      (** Tuples touched: inner-loop probes for nested loops, build+probe
          rows for hash, sorted-scan steps for sort-merge. *)
  mutable comparisons : int;
      (** Key comparisons (including those inside sorts, counted via the
          comparator). *)
  mutable output_rows : int;
}
(** Per-operator work accounting — the measured quantities the paper's
    cost models ([kappa_sm], [kappa_dnl]) abstract.  The
    model-validation experiment correlates these against the model
    estimates. *)

val fresh_work : unit -> work

val set_work_sink : work option -> unit
(** Route subsequent operator executions' accounting into the given
    record ([None] disables, the default).  Not reentrant. *)

val nested_loop_join : left:int array array -> right:int array array -> keys:key list -> int array array

val hash_join : left:int array array -> right:int array array -> keys:key list -> int array array
(** Builds on the left input, probes with the right. *)

val sort_merge_join : left:int array array -> right:int array array -> keys:key list -> int array array
(** Sorts both inputs on the key columns and merges duplicate groups. *)
