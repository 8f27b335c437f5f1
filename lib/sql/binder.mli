(** Semantic analysis: SQL AST to optimizer inputs.

    Resolves FROM items against the CREATE TABLE definitions, assigns
    dense relation indexes in FROM order, and folds the WHERE
    conjunction into a join graph:

    - a predicate without a selectivity annotation defaults to
      [1 / max(|L|, |R|)] — the textbook uniform-domain estimate for an
      equi-join on a key of the larger side;
    - multiple predicates between the same pair of relations multiply
      (the uncorrelated-predicates assumption the paper states up
      front). *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph

type bound_query = {
  catalog : Catalog.t;  (** One relation per FROM item, named by its binding name. *)
  graph : Join_graph.t;
  predicates : ((int * string) * (int * string) * float) list;
      (** Resolved column equalities: ((rel, col), (rel, col), selectivity). *)
  required_order : int option;
      (** ORDER BY resolved to an edge id (index into [Join_graph.edges
          graph]) suitable for [Blitzsplit_orders.optimize
          ~required_order].  Binding fails if the column is not a join
          attribute of some predicate. *)
}

val parse_and_bind : string -> (bound_query list, string) result
(** Lex, parse and bind a script, rendering any error to a string.
    Statements bind in order: CREATE TABLE populates the schema
    (redefinition is an error), each SELECT binds against the schema so
    far; self-joins are supported through aliases, and binding names
    must be unique.  Returns the bound queries in order. *)
