(** The cardinality-error regret harness.

    How much does a wrong catalog cost?  For each registry optimizer,
    topology and error level, the harness runs the optimizer on a
    {!Noise}-perturbed catalog, then re-costs the plan it chose under
    the {e true} statistics; regret is that true cost over the true
    optimal cost (= 1 for a perfectly robust choice).  Exact methods
    have regret exactly 1 at level 0 and degrade as error grows; the
    estimate-free [simpli-squared] tier is noise-invariant by
    construction — its regret is a flat line, the price it pays for
    reading nothing.

    Every optimizer at a given (topology, level, seed) point sees the
    {e same} perturbed catalog, so comparisons are paired; the whole
    sweep is deterministic in its seed list and independent of domain
    count (the harness runs sequentially, and the DP tiers are
    bit-identical rank-parallel anyway).  Each sample is also observed
    into the [blitz_regret_ratio] histogram, labelled per optimizer. *)

module Cost_model = Blitz_cost.Cost_model
module Topology = Blitz_graph.Topology
module Json = Blitz_util.Json

type summary = {
  samples : int;
  min : float;
  mean : float;
  p50 : float;  (** Nearest-rank quantiles over the seed samples. *)
  p90 : float;
  max : float;
}

type cell = {
  optimizer : string;
  topology : string;
  level : float;
  regrets : float array;  (** Ascending; one sample per seed. *)
  summary : summary;
}

type report = {
  n : int;
  model_name : string;
  mode : Noise.mode;
  mean_card : float;
  variability : float;
  levels : float list;
  seeds : int list;
  optimizers : string list;
  topologies : string list;
  optima : (string * float) list;  (** Per topology: the true optimal cost. *)
  cells : cell list;  (** Topology-major, then level, then optimizer. *)
}

val run :
  ?mode:Noise.mode ->
  ?optimizers:string list ->
  ?topologies:Topology.t list ->
  ?levels:float list ->
  ?seeds:int list ->
  ?multiway:bool ->
  n:int ->
  Cost_model.t ->
  report
(** Sweep the grid.  Defaults: lognormal noise, all registry
    optimizers but [bruteforce], the paper's four topologies, levels
    [0, 0.5, 1, 2] (decades of error), seeds 1-5.  The true
    statistics are generated with mean cardinality 1000 and
    variability 1/3, as the report records.  Optimizers whose caps rule the problem out
    ([max_n], [tree_only]) are skipped, not failed.  [multiway] lets
    capable optimizers plan n-ary nodes against the perturbed numbers;
    regret is still judged by re-costing under the true catalog, where
    [Plan.cost] re-solves each multiway node's AGM bound from the true
    statistics.  Deterministic: equal arguments produce equal reports.
    Raises [Invalid_argument] on empty [levels]/[seeds]/[topologies] or
    a [Workload.spec] rejection. *)

val report_to_json : report -> Json.t
val pp : Format.formatter -> report -> unit
(** Mean-regret table per topology (optimizer rows, level columns). *)
