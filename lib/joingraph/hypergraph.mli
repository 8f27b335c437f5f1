(** Join hypergraphs: predicates as sets of relations.

    A {e hyperedge} is a predicate that can only be evaluated once {e
    all} of a set of relations are present; its selectivity applies
    exactly once, at the join where its last member relation arrives.
    The AGM fractional-cover bound ([Blitz_cost.Agm]) is stated over
    hyperedges, so the multiway planner views a join graph as one, every
    edge a two-relation hyperedge. *)

module Relset = Blitz_bitset.Relset

type t

val of_join_graph : Join_graph.t -> t
(** Embed an ordinary join graph: every edge becomes a binary hyperedge,
    in {!Join_graph.edges} order. *)

(** {1 Packed form and induced sub-hypergraphs}

    Inner loops that index hyperedges by integer position — the
    multiway planner, the AGM fractional-cover solver — consume the
    packed parallel-array form instead of re-deriving it privately. *)

type packed = {
  members : Relset.t array;  (** Member set of edge [e]. *)
  sel : float array;  (** Selectivity of edge [e], same indexing. *)
}

val pack : t -> packed
(** Edges in construction order; [pack] is the canonical conversion, so
    two callers packing the same hypergraph agree on edge indexes. *)

val induced : packed -> Relset.t -> int list
(** Indexes (ascending) of the edges wholly contained in the given set —
    the induced sub-hypergraph on which a per-subset fractional edge
    cover is solved. *)
