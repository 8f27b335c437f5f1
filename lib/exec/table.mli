(** In-memory relations for the mini execution engine.

    The paper's optimizer lives inside a DBMS it never shows; this
    substrate provides just enough of one to {e run} the plans the
    optimizer emits — so the cardinality estimates driving the DP can be
    validated against actual intermediate result sizes.  Relations are
    row-major arrays of machine integers with named columns. *)

type t = private { name : string; columns : string array; rows : int array array }

val create : name:string -> columns:string array -> rows:int array array -> t
(** Raises [Invalid_argument] on duplicate/empty column names or rows of
    the wrong width. *)

val name : t -> string
val n_rows : t -> int
val n_columns : t -> int
val columns : t -> string array
val row : t -> int -> int array
(** A copy of the given row.  Raises [Invalid_argument] out of range. *)

val get : t -> row:int -> col:int -> int
