(** Deterministic benchmark-workload generation (Section 6.1 + appendix).

    The paper argues against random test mixes and instead samples a
    4-dimensional grid deterministically:

    - {b cost model}: naive, sort-merge, disk nested loops;
    - {b join-graph topology}: chain, cycle+3, star, clique;
    - {b mean cardinality}: the geometric mean [mu] of the base-relation
      cardinalities, sampled logarithmically at [10^(2k/3)]
      (1, 4.64, 21.5, 100, 464, ...);
    - {b variability} in [\[0, 1\]]: [|R_0| = mu^(1 - v)] with constant
      ratio [|R_i| / |R_{i-1}|] (so [|R_{n-1}| = mu^(1 + v)]), 0 meaning
      all cardinalities equal.

    Selectivities follow the appendix formula and make every query's
    result cardinality equal [mu]. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model

type spec = {
  n : int;
  topology : Topology.t;
  model : Cost_model.t;
  mean_card : float;  (** Geometric mean [mu] of base-relation cardinalities. *)
  variability : float;  (** In [\[0, 1\]]. *)
}

val spec :
  n:int -> topology:Topology.t -> model:Cost_model.t -> mean_card:float -> variability:float -> spec
(** Validating constructor.  Raises [Invalid_argument] on [n < 2],
    non-positive [mean_card], [variability] outside [\[0, 1\]], or a
    topology infeasible at size [n] ({!Topology.check}). *)

val catalog : spec -> Catalog.t
(** The appendix cardinality ladder: [|R_i| = mu^(1 - v + 2vi/(n-1))],
    whose geometric mean is exactly [mu]. *)

val problem : spec -> Catalog.t * Join_graph.t

val describe : spec -> string
(** e.g. ["n=15 chain ksm mu=100 v=0.33"]. *)

(** {1 Grid axes} *)

val mean_card_axis : ?count:int -> unit -> float array
(** [10^(2k/3)] for [k = 0 .. count-1]; default [count = 10] reaches
    [10^6]. *)

val variability_axis : ?count:int -> unit -> float array
(** Evenly spaced values from 0 to 1 inclusive; default [count = 4]
    gives 0, 1/3, 2/3, 1. *)

val grid :
  n:int ->
  models:Cost_model.t list ->
  topologies:Topology.t list ->
  mean_cards:float array ->
  variabilities:float array ->
  spec list
(** Cartesian product of the axes, in row-major order (model outermost,
    variability innermost) — the sampling order of Figure 4. *)
