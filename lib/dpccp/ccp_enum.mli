(** Connected-subgraph / complement-pair enumeration (DPccp).

    The EnumerateCsg / EnumerateCsgRec / EnumerateCmp procedures of
    Moerkotte & Neumann ("Analysis of Two Existing and One New Dynamic
    Programming Algorithm for the Generation of Optimal Bushy Join
    Trees without Cross Products", VLDB 2006), realized over the
    repository's subsets-as-integers bitsets with precomputed adjacency
    masks and the Section 4.2 successor trick for neighborhood-subset
    expansion.  The enumeration allocates nothing per emitted set or
    pair.

    {b Emission order.}  Pairs come out in the order the published
    algorithm produces them, which guarantees that when a csg-cmp pair
    [(S1, S2)] is emitted, every pair composing [S1] and every pair
    composing [S2] has been emitted before it.  {!Dpccp} relies on this
    to fold each pair into the DP table immediately, with no collect +
    sort-by-size pass. *)

module Relset = Blitz_bitset.Relset
module Join_graph = Blitz_graph.Join_graph

val iter_ccp : Join_graph.t -> (Relset.t -> Relset.t -> unit) -> unit
(** Every csg-cmp pair [(S1, S2)]: disjoint, individually connected,
    joined by at least one predicate, with [min S1 < min S2]; each
    unordered pair exactly once. *)
