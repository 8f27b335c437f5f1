(** One optimizer interface over every join-order algorithm in the
    repository.

    Each algorithm — the exact blitzsplit DP (one pass, whose split
    loops run rank by rank on a ctx's pool when it has one, or Section
    6.4's threshold driver over that pass), the Section 7 hybrid, and the
    [lib/baselines] family — registers under one
    [optimize : ctx -> problem -> outcome] signature together with
    capability metadata.  Callers (the degradation cascade, the CLI,
    the bench harness, {!Engine}) dispatch by name and read eligibility
    off the metadata instead of hand-wiring per-algorithm match arms
    and duplicating [Dp_table.max_relations] / table-size logic.

    Registration instruments each entry: every dispatch — by name or
    through a held {!entry} — bumps [blitz_registry_calls_total] (and
    [blitz_registry_errors_total] on raise) labelled with the optimizer
    name, and runs inside a [registry.optimize] trace span, so the
    cascade's and the engine's direct calls are metered too. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Arena = Blitz_core.Arena
module Counters = Blitz_core.Counters
module Dp_table = Blitz_core.Dp_table
module Pool = Blitz_parallel.Pool
module Dpccp = Blitz_dpccp.Dpccp
module Dpconv = Blitz_dpccp.Dpconv

type problem = { catalog : Catalog.t; graph : Join_graph.t option }
(** A query: its relations and, optionally, its join predicates.  A
    [None] graph means pure Cartesian-product optimization (Section 3);
    optimizers that require predicates treat it as a predicate-free
    graph over the catalog. *)

val problem : ?graph:Join_graph.t -> Catalog.t -> problem
(** Smart constructor pairing a catalog with its (optional) join
    graph. *)

type ctx = {
  model : Cost_model.t;
  arena : Arena.t option;  (** Session workspace for DP-table reuse. *)
  pool : Pool.t option;
      (** Already-spawned domain pool: the blitzsplit entries run each
          rank's split loops on it, and on the calling domain without
          one. *)
  interrupt : (unit -> bool) option;  (** Deadline/cancellation probe. *)
  threshold : float option;
      (** A Section 6.4 plan-cost threshold for ["exact"]: its first
          pass prunes at it, a pass that finds no plan is rerun at the
          threshold times [growth], and after 16 such passes one
          unthresholded pass answers ({!Blitz_core.Threshold.drive}).
          The plan and cost bits are the plain pass's, and only the
          passes run, their counters and the final threshold depend on
          the threshold, unless a pass's threshold lies within a few
          ulps of the optimum, where the pass's threshold test rounds.
          A threshold above the optimum, such as {!upper_bound} with its
          1e-9 margin, succeeds on its first pass.  [None] runs the
          plain pass alone; the other entries ignore it. *)
  growth : float option;
      (** Threshold growth factor between ["exact"]'s passes (default
          [1e4]). *)
  seed : int;  (** Drives every stochastic optimizer. *)
  counters : Counters.t option;  (** Accumulates split-loop counts. *)
}
(** Everything an optimizer may draw on, problem-independent: one [ctx]
    can serve many problems (that is what {!Engine} does). *)

val ctx :
  ?arena:Arena.t ->
  ?pool:Pool.t ->
  ?interrupt:(unit -> bool) ->
  ?threshold:float ->
  ?growth:float ->
  ?seed:int ->
  ?counters:Counters.t ->
  Cost_model.t ->
  ctx
(** Smart constructor; [seed] defaults to 1. *)

type outcome = {
  plan : Plan.t option;  (** [None] when the method found no plan. *)
  cost : float;  (** Under [ctx.model]; [infinity]/[nan] possible. *)
  passes : int;  (** Optimization passes run (Section 6.4's driver). *)
  final_threshold : float;  (** [infinity] when unthresholded. *)
  table : Dp_table.t option;
      (** The filled DP table, for optimizers that build one.  When the
          ctx carried an arena this is a view of the arena's buffer —
          valid until the next acquire. *)
  counters : Counters.t option;  (** The counters the run accumulated into. *)
  note : string option;  (** Method-specific diagnostics, one line. *)
}

type caps = {
  max_n : int option;  (** Largest relation count the method accepts. *)
  tree_only : bool;  (** Requires an acyclic (tree) join graph. *)
  table_bytes : (n:int -> int) option;
      (** Estimated table footprint before allocation, for memory
          ceilings; [None] for table-free methods. *)
  parallelizable : bool;  (** Runs its split loops on [ctx.pool]. *)
  exact : bool;
      (** Guaranteed optimal over the full bushy plan space, Cartesian
          products included, when it returns a plan.  These are the
          entries whose answers a session's plan cache stores: a cached
          plan is replayed under the same fingerprint whichever exact
          entry later serves the query, so product-free or left-deep
          optima do not qualify. *)
  deadline_exempt : bool;
      (** Cheap enough to run even on an expired budget (greedy — the
          cascade's terminal guarantee). *)
  connected_only : bool;
      (** Searches the product-free plan space only: on a disconnected
          join graph the method cannot produce a complete plan at all
          ([dpccp], [dpsize-no-products]), so dispatch is refused
          upfront by {!eligible}. *)
}

type entry = {
  name : string;
  summary : string;
  caps : caps;
  optimize : ctx -> problem -> outcome;
}
(** [optimize] may raise [Blitzsplit.Interrupted] (when [ctx.interrupt]
    fires) or [Invalid_argument] (caps violated); anything else is a
    bug. *)

val register : entry -> unit
(** Add an optimizer.  Raises [Invalid_argument] on a duplicate name.
    The built-in entries are registered at module initialization:
    [exact], [hybrid], [ikkbz], [greedy],
    [simpli-squared], [dpsize], [dpsize-no-products], [leftdeep],
    [leftdeep-deferred], [iterative-improvement], [simulated-annealing],
    [random-probe], [volcano], [dpccp], [dpconv], [bruteforce]. *)

val all : unit -> entry list
(** In registration order. *)

val names : unit -> string list
(** Registered optimizer names, in registration order — the list
    [find] accepts and the CLI's [blitz optimizers] dump prints. *)

val find : string -> entry option
(** Look an entry up by name; [None] for unregistered names. *)

val find_exn : string -> entry
(** Raises [Invalid_argument] with the list of known names. *)

type bound = {
  value : float;  (** The heuristic plan's cost times [1 + 1e-9]. *)
  source : string;
      (** The registry entry whose plan set it: ["greedy"] or
          ["simpli-squared"]. *)
}
(** An upper bound on the optimum, for a Section 6.4 pass. *)

val upper_bound : Cost_model.t -> problem -> bound option
(** The cheaper of greedy's plan and Simpli-Squared's plan (re-costed
    with [Plan.cost]) under the model, times [1 + 1e-9]: an upper bound
    on the optimum with a margin far wider than the DP's rounding, so a
    threshold there skips no subset of the optimal plan.  Greedy is
    the tighter bound on chains and cycles, Simpli-Squared on cliques;
    ties go to greedy.  [None] when neither cost is positive and
    finite.  The cascade's exact tier passes it as [ctx.threshold], so
    its first pass succeeds. *)

val optimize : ?optimizer:string -> ctx -> problem -> outcome
(** [optimize ~optimizer ctx p] = [(find_exn optimizer).optimize ctx p];
    [optimizer] defaults to ["exact"]. *)

val eligible : ?connected:bool -> entry -> n:int -> is_tree:bool -> (unit, string) result
(** Quick metadata check: [Error reason] when the entry's caps rule the
    problem out ([max_n], [tree_only], and — when the caller knows the
    graph's connectivity — [connected_only]; [connected] defaults to
    [true], i.e. benefit of the doubt).  Memory ceilings are the
    budget-holder's side (see [Degrade.eligibility]). *)
