(** AGM bound / fractional edge cover for multiway-join costing.

    The worst-case-optimal-join literature (Atserias–Grohe–Marx;
    Leapfrog Triejoin, arXiv 1210.0481; Capelli et al., arXiv
    2409.14094) bounds a join's output by the {e AGM bound}: minimize
    [prod_e |R_e|^{x_e}] over fractional edge covers [x] of the query's
    hypergraph.  Here the covering "relations" are the predicate
    (hyper)edges, each viewed as a relationship table of size
    [prod_{i in e} N_i * sel_e], together with implicit per-relation
    self-covers; in log space the objective collapses to

    {v G(x) = sum_i ln(N_i) * max(1, cov_i) + sum_e x_e * ln(sel_e) v}

    with [cov_i] the total edge weight incident on relation [i].
    {e Every} [x >= 0] yields a valid upper bound, so the solvers can
    be approximate without risking soundness:

    - up to 6 induced edges ([3^6] objective evaluations; a 4-clique
      still lands here), exhaustive half-integral
      enumeration over [{0, 1/2, 1}^m] (exact for binary-edge graphs,
      whose cover LP has half-integral optima), deterministic
      first-strictly-less tie-break;
    - beyond it, deterministic coordinate descent from the all-[1/2]
      start to a fixpoint;
    - when any log is non-finite (degenerate or fabricated statistics),
      an integral greedy cover evaluated without logarithms. *)

module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Hypergraph = Blitz_graph.Hypergraph

type cover = {
  weights : (int list * float) list;
      (** Edges with positive weight: member relation indexes
          (ascending) paired with [x_e], in induced-edge order.
          Vertex self-covers are implicit ([max(0, 1 - cov_i)]). *)
  log_bound : float;  (** The minimized [G]. *)
  bound : float;  (** [exp log_bound] — the cardinality bound. *)
  exact : bool;
      (** Whether the exhaustive half-integral search ran (false for
          coordinate descent and the degenerate fallback). *)
}

val fractional_edge_cover : Catalog.t -> Hypergraph.packed -> Relset.t -> cover
(** Cover of the sub-hypergraph induced by the set (edges wholly
    contained in it).  Raises [Invalid_argument] on the empty set.
    With no induced edges the bound degenerates to the product of
    member cardinalities (all self-covers). *)

val of_join_graph : Catalog.t -> Join_graph.t -> Relset.t -> cover
(** Convenience: pack the binary join graph as a hypergraph and solve.
    Used by reference re-costing (plan cost under true statistics);
    the optimizer packs once per query instead. *)

val kappa_multiway : inputs:float list -> out:float -> agm:float -> float
(** Cost of one n-ary hash-based multiway join: the sum of input
    cardinalities (hash-index builds) plus the enumeration work
    [min(agm, max(out, max_input))].  The cap keeps the worst-case
    bound comparable with the independence-estimate binary costs it
    competes against: enumeration is never charged more than the
    estimates claim can flow out of the node. *)
