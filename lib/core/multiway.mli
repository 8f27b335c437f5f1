(** Multiway-candidate side table for the DP optimizers.

    The blitzsplit/dpccp table names each subset's best plan with one
    integer ([best_lhs]); an n-ary node does not fit.  Multiway winners
    therefore store the sentinel [best_lhs.(s) = s] — impossible for a
    real split — and park their fractional edge cover here, keyed by
    subset.  A candidate is tried only on 2-edge-connected induced
    subgraphs (a cyclic core), so acyclic queries do zero extra
    floating-point work and their tables stay bit-identical to the
    seed optimizer's. *)

module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Agm = Blitz_cost.Agm
module Plan = Blitz_plan.Plan

type t

val create : Catalog.t -> Join_graph.t -> t
(** Packs the graph's hypergraph once; reuse across the whole pass. *)

val try_candidate :
  t -> out:float -> current:float -> threshold:float -> Relset.t -> float option
(** Core of {!consider} for table layouts other than {!Dp_table} (the
    dpccp sparse store): if the subset is a candidate and the n-ary cost
    — from estimated output [out] — strictly beats both [current] and
    [threshold], record the cover and return the cost; the caller
    installs the sentinel in its own table. *)

val consider : t -> Dp_table.t -> Counters.t -> threshold:float -> Relset.t -> unit
(** Run after [find_best_split] on the subset: if it is a candidate,
    solve the AGM cover, cost the n-ary join of the subset's relations
    ([kappa_multiway]) and, when that strictly beats both the recorded
    best split and the threshold, overwrite the table entry with the
    sentinel and record the cover (bumping [multiway_wins]). *)

val plan_of : t -> Relset.t -> Plan.t option
(** The [Plan.Multiway] node (over the subset's leaves, with cover
    weights and AGM bound) for a recorded winner. *)

val extract_plan : ?multiway:t -> Dp_table.t -> Relset.t -> Plan.t option
(** Sentinel-aware {!Dp_table.extract_plan}: walks [best_lhs] links,
    emitting the recorded [Plan.Multiway] node wherever the walk hits
    the sentinel.  Without [~multiway] it is exactly
    [Dp_table.extract_plan] (which treats a sentinel as infeasible). *)
