(** Synthetic data realizing a catalog + join graph.

    For each relation the generator materializes [round |R_i|] rows; for
    each predicate edge [(i, j)] with selectivity [s] it gives both
    relations a shared join column whose values are uniform over a domain
    of size [max 1 (round (1/s))] — two independent uniform draws over a
    domain of size [d] match with probability [1/d], so the equi-join on
    that column has expected selectivity close to [s] (exactly [1/d]).
    Selectivities above 1 (possible under the appendix formula at extreme
    parameters) clamp to domain 1.

    This is the substitution for the paper's (implicit) host DBMS data:
    it exercises the estimate-vs-actual code path the authors relied on
    their system for.  Deterministic from the RNG seed. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Rng = Blitz_util.Rng

type t = {
  catalog : Catalog.t;
  graph : Join_graph.t;
  tables : Table.t array;  (** Indexed like the catalog. *)
}

val edge_attribute : int -> int -> string
(** Name of the shared join column for edge [(i, j)] (order
    insensitive): ["j<min>_<max>"]. *)

val realized_selectivity : Join_graph.t -> int -> int -> float
(** The selectivity the generated data actually implements for an edge:
    [1 / domain], i.e. [1 / max 1 (round (1/s))].  Differs slightly from
    the requested [s] because domains are integral. *)

val realized_graph : t -> Join_graph.t
(** The join graph with every edge's selectivity replaced by its
    realized value — what the optimizer should be fed for
    estimate-vs-actual comparisons to be meaningful. *)

val realized_catalog : t -> Catalog.t
(** Catalog with cardinalities equal to the actual (integral) row
    counts. *)

val generate : rng:Rng.t -> Catalog.t -> Join_graph.t -> t
(** Materialize tables.  Raises [Invalid_argument] if some relation's
    rounded cardinality exceeds 500,000 rows. *)
