module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Rng = Blitz_util.Rng
module Arena = Blitz_core.Arena
module Counters = Blitz_core.Counters
module Dp_table = Blitz_core.Dp_table
module Live_index = Blitz_core.Live_index
module Blitzsplit = Blitz_core.Blitzsplit
module Threshold = Blitz_core.Threshold
module Pool = Blitz_parallel.Pool
module Hybrid = Blitz_hybrid.Hybrid
module Dpccp = Blitz_dpccp.Dpccp
module Dpconv = Blitz_dpccp.Dpconv
module B = Blitz_baselines
module Obs = Blitz_obs.Obs

type problem = { catalog : Catalog.t; graph : Join_graph.t option }

let problem ?graph catalog = { catalog; graph }

type ctx = {
  model : Cost_model.t;
  arena : Arena.t option;
  pool : Pool.t option;
  interrupt : (unit -> bool) option;
  threshold : float option;
  growth : float option;
  seed : int;
  counters : Counters.t option;
}

let ctx ?arena ?pool ?interrupt ?threshold ?growth ?(seed = 1) ?counters model =
  { model; arena; pool; interrupt; threshold; growth; seed; counters }

type outcome = {
  plan : Plan.t option;
  cost : float;
  passes : int;
  final_threshold : float;
  table : Dp_table.t option;
  counters : Counters.t option;
  note : string option;
}

type caps = {
  max_n : int option;
  tree_only : bool;
  table_bytes : (n:int -> int) option;
  parallelizable : bool;
  exact : bool;
  connected_only : bool;
}

type entry = {
  name : string;
  summary : string;
  caps : caps;
  optimize : ctx -> problem -> outcome;
}

(* ---- shared helpers ---- *)

let graph_of { catalog; graph } =
  match graph with
  | Some g -> g
  | None -> Join_graph.no_predicates ~n:(Catalog.n catalog)

let counters_of (c : ctx) = match c.counters with Some c -> c | None -> Counters.create ()

let basic ?note ?counters ~plan ~cost () =
  { plan; cost; passes = 1; final_threshold = Float.infinity; table = None; counters; note }

let of_blitzsplit ?(passes = 1) ?(final_threshold = Float.infinity) ctr (r : Blitzsplit.t) =
  {
    plan = Blitzsplit.best_plan r;
    cost = Blitzsplit.best_cost r;
    passes;
    final_threshold;
    table = Some r.Blitzsplit.table;
    counters = Some ctr;
    note = None;
  }

let dp_caps =
  {
    max_n = Some Dp_table.max_relations;
    tree_only = false;
    table_bytes = Some (fun ~n -> Dp_table.estimate_bytes ~n ());
    parallelizable = true;
    exact = true;
    connected_only = false;
  }

(* Every blitzsplit pass also takes the per-rank subset lists, 4 B per
   table slot, which double as a seeded pass's live-operand index. *)
let blitzsplit_caps =
  {
    dp_caps with
    table_bytes =
      Some
        (fun ~n ->
          let table = Dp_table.estimate_bytes ~n () in
          if table = max_int then max_int else table + Live_index.estimate_bytes ~n);
  }

let tablefree_caps =
  {
    max_n = None;
    tree_only = false;
    table_bytes = None;
    parallelizable = false;
    exact = false;
    connected_only = false;
  }

(* The stochastic searches price plans through [Eval]'s cardinality
   table, which stops at the DP table's relation cap. *)
let stochastic_caps = { tablefree_caps with max_n = Some Dp_table.max_relations }

(* ---- the heuristic plans and the upper bound ---- *)

type bound = { value : float; source : string }

type heuristic = string * Plan.t * float

let usable c = Float.is_finite c && c > 0.0

(* Greedy's plan is the cheaper on chains and cycles, Simpli-Squared's
   structural order (re-costed under the model) on cliques, where
   greedy's can be many orders of magnitude above the optimum.  Both are
   called directly, so they count as no registry dispatch. *)
let heuristics model p =
  let graph = graph_of p in
  let greedy_plan, greedy = B.Greedy.optimize model p.catalog graph in
  let simpli_plan = B.Simpli.optimize graph in
  let simpli = Plan.cost model p.catalog graph simpli_plan in
  let g = ("greedy", greedy_plan, greedy) and s = ("simpli-squared", simpli_plan, simpli) in
  if usable simpli && not (usable greedy && greedy <= simpli) then [ s; g ] else [ g; s ]

(* Any plan's cost bounds the optimum from above, so a §6.4 pass at a
   threshold a whisker above it prunes hard yet cannot fail for numeric
   reasons: the 1e-9 margin is orders of magnitude wider than the DP's
   rounding, including the few ulps by which the DP's costing of the
   plan may differ from the heuristic's own.  [None] when the leading
   cost is not positive and finite (overflow, or a lone relation). *)
let upper_bound = function
  | (source, _, cost) :: _ when usable cost -> Some { value = cost *. (1.0 +. 1e-9); source }
  | _ -> None

(* ---- the blitzsplit entry: one pass, on the ctx's pool if any ---- *)

(* One blitzsplit pass under [ctx]: its split loops run rank by rank on
   the ctx's pool when it has one, on the calling domain otherwise, with
   the same bits either way. *)
let pass (ctx : ctx) p ~counters ~threshold =
  match p.graph with
  | Some g ->
    Blitzsplit.optimize_join ?pool:ctx.pool ?arena:ctx.arena ~counters ~threshold
      ?interrupt:ctx.interrupt ctx.model p.catalog g
  | None ->
    Blitzsplit.optimize_product ?pool:ctx.pool ?arena:ctx.arena ~counters ~threshold
      ?interrupt:ctx.interrupt ctx.model p.catalog

(* Without a threshold this is the paper's unthresholded DP.

   With one it is Section 6.4's driver over [pass], starting at the ctx
   threshold; the passes share one table, a private arena when the ctx
   has none, so a retry never reallocates.  The answer cannot move
   (outside a few ulps above the optimum, where a pass's threshold test
   rounds).
   Costs are sums of non-negative terms, so every subplan of the optimum
   costs at most the optimum; under kappa_sm so does a subplan plus its
   completion term (see [Split_loop.completion_threshold]).  A pass whose
   threshold is above the optimum therefore skips or cuts short no
   subset on the plain DP's plan, each computes the same minimum from the
   same operands, and the loop keeps the first split reaching it, as the
   plain loop does.  Elsewhere the pass can only raise an entry, to a
   costlier split or to infinity, so no earlier split on that plan can
   reach the minimum first.  A pass whose threshold is at or below the
   optimum finds no plan, and the driver raises the threshold; the
   cascade passes [upper_bound], which is above the optimum, so its first
   pass succeeds. *)
let run_exact ctx p =
  let ctr = counters_of ctx in
  match ctx.threshold with
  | None -> of_blitzsplit ctr (pass ctx p ~counters:ctr ~threshold:Float.infinity)
  | Some threshold ->
    let ctx =
      if Option.is_none ctx.arena then { ctx with arena = Some (Arena.create ()) } else ctx
    in
    let o = Threshold.drive ~counters:ctr ?growth:ctx.growth ~threshold (pass ctx p) in
    of_blitzsplit ~passes:o.Threshold.passes ~final_threshold:o.Threshold.final_threshold ctr
      o.Threshold.result

(* ---- hybrid (Section 7): DP windows inside randomized search ---- *)

let run_hybrid ctx p =
  let rng = Rng.create ~seed:ctx.seed in
  let interrupt = match ctx.interrupt with Some f -> f | None -> fun () -> false in
  let (plan, cost), stats =
    Hybrid.optimize ~rng ?arena:ctx.arena ~interrupt ctx.model p.catalog (graph_of p)
  in
  basic
    ~note:
      (Printf.sprintf "%d windows re-optimized, %d improved, %d kicks"
         stats.Hybrid.windows_reoptimized stats.Hybrid.windows_improved stats.Hybrid.kicks)
    ~plan:(Some plan) ~cost ()

(* ---- baselines ---- *)

let run_greedy ctx p =
  let plan, cost = B.Greedy.optimize ctx.model p.catalog (graph_of p) in
  basic ~plan:(Some plan) ~cost ()

let run_ikkbz ctx p =
  let g = graph_of p in
  let r = B.Ikkbz.optimize p.catalog g in
  (* IKKBZ optimizes C_out; report the plan's cost under the session
     model for an honest cross-method comparison. *)
  basic
    ~note:"C_out ordering re-costed under the session model"
    ~plan:(Some r.B.Ikkbz.plan)
    ~cost:(Plan.cost ctx.model p.catalog g r.B.Ikkbz.plan)
    ()

let run_dpsize ~cartesian ctx p =
  let r = B.Dpsize.optimize ~cartesian ctx.model p.catalog (graph_of p) in
  basic ~plan:r.B.Dpsize.plan ~cost:r.B.Dpsize.cost
    ~note:(Printf.sprintf "%d pairs considered" r.B.Dpsize.pairs_considered)
    ()

let run_leftdeep ~policy ctx p =
  let ctr = counters_of ctx in
  let r = B.Leftdeep.optimize ~policy ~counters:ctr ctx.model p.catalog (graph_of p) in
  basic ~counters:ctr ~plan:r.B.Leftdeep.plan ~cost:r.B.Leftdeep.cost ()

let run_iterative_improvement ctx p =
  let rng = Rng.create ~seed:ctx.seed in
  let (plan, cost), stats =
    B.Iterative_improvement.optimize ~rng ctx.model p.catalog (graph_of p)
  in
  basic
    ~note:
      (Printf.sprintf "%d plans evaluated, %d restarts"
         stats.B.Iterative_improvement.plans_evaluated
         stats.B.Iterative_improvement.restarts_done)
    ~plan:(Some plan) ~cost ()

let run_simulated_annealing ctx p =
  let rng = Rng.create ~seed:ctx.seed in
  let (plan, cost), stats =
    B.Simulated_annealing.optimize ~rng ctx.model p.catalog (graph_of p)
  in
  basic
    ~note:
      (Printf.sprintf "%d plans evaluated, %d uphill accepted"
         stats.B.Simulated_annealing.plans_evaluated stats.B.Simulated_annealing.uphill_accepted)
    ~plan:(Some plan) ~cost ()

let run_random_probe ctx p =
  let rng = Rng.create ~seed:ctx.seed in
  let samples = 200 * Catalog.n p.catalog in
  let plan, cost = B.Random_probe.optimize ~rng ~samples ctx.model p.catalog (graph_of p) in
  basic ~note:(Printf.sprintf "%d samples" samples) ~plan:(Some plan) ~cost ()

let run_volcano ctx p =
  let (plan, cost), stats = B.Volcano.optimize ctx.model p.catalog (graph_of p) in
  basic
    ~note:
      (Printf.sprintf "%d groups, %d expressions" stats.B.Volcano.groups
         stats.B.Volcano.expressions)
    ~plan:(Some plan) ~cost ()

let run_simpli ctx p =
  let g = graph_of p in
  let plan = B.Simpli.optimize g in
  (* The order is chosen from graph structure alone; the reported cost
     is a re-costing under the session model and whatever catalog the
     caller supplied — possibly fabricated, which is exactly when this
     tier earns its keep. *)
  basic
    ~note:"estimate-free structural order re-costed under the session model"
    ~plan:(Some plan)
    ~cost:(Plan.cost ctx.model p.catalog g plan)
    ()

let run_dpccp ctx p =
  let ctr = counters_of ctx in
  let r =
    Dpccp.optimize ?arena:ctx.arena ~counters:ctr ?interrupt:ctx.interrupt ctx.model p.catalog
      (graph_of p)
  in
  {
    plan = r.Dpccp.plan;
    cost = r.Dpccp.cost;
    passes = 1;
    final_threshold = Float.infinity;
    table = r.Dpccp.table;
    counters = Some ctr;
    note =
      Some
        (Printf.sprintf "%d csg-cmp pairs over %d connected sets (%s backend)"
           r.Dpccp.ccp_pairs r.Dpccp.connected_sets
           (match r.Dpccp.backend with Dpccp.Dense -> "dense" | Dpccp.Sparse -> "sparse"));
  }

let run_dpconv ctx p =
  let g = graph_of p in
  let r = Dpconv.optimize ?interrupt:ctx.interrupt p.catalog g in
  (* DPconv minimizes the C_max bottleneck; report the plan's cost under
     the session model for an honest cross-method comparison. *)
  basic
    ~note:
      (Printf.sprintf
         "C_max bottleneck %.6g in %d feasibility checks; re-costed under the session model"
         r.Dpconv.bottleneck r.Dpconv.checks)
    ~plan:(Some r.Dpconv.plan)
    ~cost:(Plan.cost ctx.model p.catalog g r.Dpconv.plan)
    ()

let run_bruteforce ctx p =
  let plan, cost = B.Bruteforce.optimize ctx.model p.catalog (graph_of p) in
  basic ~plan:(Some plan) ~cost ()

(* ---- the registry itself ---- *)

(* Every dispatch — by name through [optimize], or directly through a
   held [entry] (the cascade, [Engine.optimize_many]) — is metered,
   because the meter is baked into the entry when the list is built.  The
   wrapper changes no computation: same ctx, same problem, same result
   or exception. *)
let instrument e =
  let calls =
    Obs.Metrics.counter ~help:"Optimizer dispatches through the registry"
      ~labels:[ ("optimizer", e.name) ]
      "blitz_registry_calls_total"
  in
  let errors =
    Obs.Metrics.counter ~help:"Registry dispatches that raised"
      ~labels:[ ("optimizer", e.name) ]
      "blitz_registry_errors_total"
  in
  let optimize ctx p =
    Obs.Metrics.incr calls;
    Obs.span "registry.optimize" ~attrs:[ ("optimizer", e.name) ] (fun () ->
        try e.optimize ctx p
        with exn ->
          Obs.Metrics.incr errors;
          raise exn)
  in
  { e with optimize }

(* The built-in optimizers, a fixed list built at module initialization
   so linking the library is enough to see them. *)
let entries =
  List.map instrument
    [
      {
        name = "exact";
        summary = "blitzsplit: exhaustive bushy DP with Cartesian products";
        caps = blitzsplit_caps;
        optimize = run_exact;
      };
      {
        name = "hybrid";
        summary = "DP windows inside chained randomized search (any n)";
        caps = tablefree_caps;
        optimize = run_hybrid;
      };
      {
        name = "ikkbz";
        summary = "IKKBZ: optimal product-free left-deep order for tree queries";
        caps = { tablefree_caps with tree_only = true };
        optimize = run_ikkbz;
      };
      {
        name = "greedy";
        summary = "greedy min-cardinality pairing";
        caps = tablefree_caps;
        optimize = run_greedy;
      };
      {
        name = "simpli-squared";
        summary = "estimate-free structural left-deep order (reads no statistics)";
        caps = tablefree_caps;
        optimize = run_simpli;
      };
      {
        name = "dpsize";
        summary = "size-driven DP enumerator, Cartesian products allowed";
        caps = { dp_caps with parallelizable = false };
        optimize = run_dpsize ~cartesian:true;
      };
      {
        name = "dpsize-no-products";
        summary = "size-driven DP enumerator, connected joins only";
        caps =
          {
            dp_caps with
            parallelizable = false;
            exact = false;
            connected_only = true;
          };
        optimize = run_dpsize ~cartesian:false;
      };
      {
        name = "leftdeep";
        summary = "System-R-style left-deep DP, products allowed";
        caps = { dp_caps with parallelizable = false; exact = false };
        optimize = run_leftdeep ~policy:B.Leftdeep.Allowed;
      };
      {
        name = "leftdeep-deferred";
        summary = "left-deep DP with Cartesian products deferred to the end";
        caps = { dp_caps with parallelizable = false; exact = false };
        optimize = run_leftdeep ~policy:B.Leftdeep.Deferred;
      };
      {
        name = "iterative-improvement";
        summary = "random restarts + downhill transformation moves";
        caps = stochastic_caps;
        optimize = run_iterative_improvement;
      };
      {
        name = "simulated-annealing";
        summary = "annealed transformation search over bushy plans";
        caps = stochastic_caps;
        optimize = run_simulated_annealing;
      };
      {
        name = "random-probe";
        summary = "best of 200n independent random bushy plans";
        caps = stochastic_caps;
        optimize = run_random_probe;
      };
      {
        name = "volcano";
        summary = "rule-based memo explored to closure";
        (* The closure materializes every ordered split, O(3^n) hashed
           expressions: on kappa_0 cliques it takes 0.3 s at n = 10 and
           11 s at n = 12, so it is capped where bruteforce is. *)
        caps = { dp_caps with max_n = Some 10; parallelizable = false };
        optimize = run_volcano;
      };
      {
        name = "dpccp";
        summary = "connectivity-pruned DP over csg-cmp pairs (no Cartesian products)";
        caps =
          {
            dp_caps with
            max_n = Some Dpccp.max_relations;
            table_bytes = Some (fun ~n -> Dpccp.estimate_bytes ~n);
            parallelizable = false;
            exact = false;
            connected_only = true;
          };
        optimize = run_dpccp;
      };
      {
        name = "dpconv";
        summary = "subset-sum convolution minimizing the C_max bottleneck";
        caps =
          {
            dp_caps with
            max_n = Some Dpconv.max_relations;
            table_bytes = Some (fun ~n -> Dpconv.estimate_bytes ~n);
            parallelizable = false;
            exact = false;
                  };
        optimize = run_dpconv;
      };
      {
        name = "bruteforce";
        summary = "every bushy plan enumerated: the correctness oracle";
        caps = { dp_caps with max_n = Some B.Bruteforce.max_relations; parallelizable = false };
        optimize = run_bruteforce;
      };
    ]

let all () = entries

let find name = List.find_opt (fun e -> e.name = name) entries

let find_exn name =
  match find name with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Registry: unknown optimizer %S (known: %s)" name
         (String.concat ", " (List.map (fun e -> e.name) entries)))

let names () = List.map (fun e -> e.name) entries

let optimize ?(optimizer = "exact") ctx p = (find_exn optimizer).optimize ctx p

(* ---- metadata-driven eligibility ---- *)

let eligible ?(connected = true) entry ~n ~is_tree =
  if (match entry.caps.max_n with Some limit -> n > limit | None -> false) then
    Error
      (Printf.sprintf "%d relations exceed the %d-relation cap" n
         (Option.get entry.caps.max_n))
  else if entry.caps.tree_only && not is_tree then Error "join graph is not a tree"
  else if entry.caps.connected_only && not connected then
    Error "join graph is disconnected (method excludes Cartesian products)"
  else Ok ()
