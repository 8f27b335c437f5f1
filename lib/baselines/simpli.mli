(** Estimate-free join ordering (Simpli-Squared).

    Simpli-Squared (arXiv 2111.00163) demonstrates that join orders
    chosen {e without any cardinality estimates} — from the join graph's
    structure alone — are surprisingly competitive.  This module is that
    idea as a baseline: a left-deep vine built hub-first
    (maximum-degree start, then most-edges-into-prefix next, Cartesian
    products only when the graph forces them), with all ties broken
    toward the lower relation index.

    Because it never reads the catalog, its output is immune to
    cardinality-estimate error — the Guard cascade uses it as the
    estimate-free bottom tier that survives catalog corruption
    {!Blitz_guard.Sanitize} can only paper over. *)

module Join_graph = Blitz_graph.Join_graph
module Plan = Blitz_plan.Plan

val optimize : Join_graph.t -> Plan.t
(** Left-deep plan over the structural join order.  Deterministic in
    the graph's shape; cost it under whatever catalog the caller trusts
    (e.g. {!Plan.cost}).  Raises [Invalid_argument] on an empty
    graph. *)
