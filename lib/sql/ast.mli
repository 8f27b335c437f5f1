(** Abstract syntax for the SQL subset understood by the front end.

    The optimizer needs exactly what Section 3.1 lists — relation
    cardinalities and predicate selectivities — so the dialect is a thin
    skin over that:

    {v
    CREATE TABLE orders (CARDINALITY 150000);
    SELECT * FROM orders o, lineitem l, customer c
    WHERE o.okey = l.okey {0.0000066}
      AND o.ckey = c.ckey
    ORDER BY o.okey;
    v}

    The braces annotate a predicate's selectivity; without one the binder
    falls back to the uniform-domain default [1 / max(|L|, |R|)]. *)

type position = { line : int; column : int }
(** 1-based source coordinates. *)

type column_ref = { table : string; column : string; ref_pos : position }
(** [table] is the FROM-clause alias (or table name when unaliased). *)

type predicate = {
  lhs : column_ref;
  rhs : column_ref;
  selectivity : float option;  (** The brace annotation, when present. *)
  pred_pos : position;
}

type from_item = { table_name : string; alias : string option; from_pos : position }

type select = {
  from : from_item list;
  where : predicate list;
  order_by : column_ref option;  (** [ORDER BY t.col], at most one column. *)
  select_pos : position;
}

type statement =
  | Create_table of { name : string; cardinality : float; create_pos : position }
  | Select of select

val binding_name : from_item -> string
(** The name a FROM item is referred to by: its alias if given, else the
    table name. *)

val pp_position : Format.formatter -> position -> unit
