(** Blitzsplit with interesting sort orders (physical properties).

    Section 6.5 of the paper: "The issue of physical properties (e.g.,
    'interesting' sort orders) is trickier.  Although we have a plausible
    strategy for accommodating physical properties in special cases, we
    have yet to develop a strategy for the general case."  This module
    develops the classic strategy (Selinger et al.'s interesting orders,
    transplanted onto the bitset DP): the table keys become
    {e (subset, order)} pairs, where an order is "sorted on the join
    attribute of edge e" and only {e interesting} orders — those whose
    edge crosses the subset's boundary and can therefore still be
    exploited — get their own slots.

    Physical algebra:
    - [Scan r]: a base relation, no order guarantee;
    - [Sort (p, e)]: explicit enforcer, cost [c log c] on [c] rows;
    - [Nested_loop (l, r)]: costed with the paper's [kappa_dnl];
      {e preserves the outer (left) input's order};
    - [Merge_join (l, r, e)]: requires both inputs sorted on [e]'s
      attribute, costs one scan of each input ([|L| + |R|]).

    With no order reuse, [Sort + Merge_join] adds up to exactly the
    paper's [kappa_sm = |L|(1 + log |L|) + |R|(1 + log |R|)], so this
    optimizer generalizes the [min(kappa_sm, kappa_dnl)]
    multiple-algorithms model of Section 6.5 — and can beat it, by
    sorting a small intermediate result once and reusing the order, or by
    threading an order through nested-loop joins.

    Space is [O((E+1) 2^n)] where [E] is the number of predicate edges;
    intended for the sparse graphs where orders matter (chains, stars,
    cycles). *)

module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph

type phys =
  | Scan of int  (** Base relation index. *)
  | Sort of phys * int  (** Enforce the order of edge [e] (by edge id). *)
  | Nested_loop of phys * phys
  | Merge_join of phys * phys * int  (** Merge on edge [e]; inputs must deliver that order. *)

val order_of : phys -> int option
(** The order (edge id) the physical plan delivers, per the algebra
    above; [None] when unordered. *)

val phys_cost : Catalog.t -> Join_graph.t -> phys -> float
(** Independent bottom-up costing of a physical plan (used by tests as
    the oracle's cost function).  Raises [Invalid_argument] if a
    merge-join input does not deliver the required order, or if the
    plan's relation sets are malformed. *)

type result = {
  plan : phys;
  cost : float;
  states : int;  (** (subset, order) states materialized. *)
}

val optimize : ?required_order:int -> Catalog.t -> Join_graph.t -> result
(** Optimal bushy physical plan, Cartesian products included (they cost
    as nested loops).  [required_order] (an edge id) additionally demands
    the final result sorted on that edge's attribute.  Raises
    [Invalid_argument] on size mismatch, an out-of-range
    [required_order], or a state table beyond the memory cap. *)

val sm_dnl_reference_cost : Catalog.t -> Join_graph.t -> float
(** The Section 6.5 baseline this module generalizes: a plain subset DP
    where each join costs [min(kappa_sm, kappa_dnl)] — with sort-merge
    available only when a predicate spans the operands (one cannot
    merge-join on a nonexistent attribute) — and no order reuse.  The
    optimum of {!optimize} never exceeds it (tested). *)
