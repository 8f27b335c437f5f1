(* Experiment "dpconv": the exact-optimization frontier, per topology.

   For each benchmark topology (appendix wiring + selectivities, uniform
   cardinality 100, kappa_0) the sweep walks n upward and times ONE
   optimization per point for blitzsplit ("exact"), the
   connectivity-pruned dpccp and the C_max dpconv, stopping an optimizer
   once a point exceeds the per-point budget (logged — no silent
   truncation).  An optimizer's FRONTIER is the largest n it finished
   within budget: the headline is that on chains/cycles the product-free
   DP pushes the frontier from blitzsplit's ~19 to the sweep cap,
   because its csg-cmp pair count is polynomial where the split loop's
   is (3^n - 2^(n+1) + 1) / 2.

   Gates (failwith — CI-visible):
   - bit-identity: wherever exact and dpccp both finished and the exact
     optimum is product-free, the dpccp cost must match to <= 8 ulps
     (bitwise on the dense backend); where the spaces diverge, dpccp
     must cost >= exact.
   - frontiers (full mode): dpccp >= 22 on chain, >= 20 on cycle, while
     exact tops out <= 20 under the same budget (one n above the 19 it
     reaches on a 2-vCPU x86-64 VM; each n costs it ~3x); fast mode only
     checks dpccp >= exact on the chain.
   - dpconv's minimized bottleneck never exceeds the exact plan's
     largest intermediate (that plan is one of dpconv's candidates).

   `bench dpconv --json BENCH_dpconv.json` records the sweep. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Dp_table = Blitz_core.Dp_table
module Counters = Blitz_core.Counters
module Dpccp = Blitz_dpccp.Dpccp
module Dpconv = Blitz_dpccp.Dpconv
module Registry = Blitz_engine.Registry
module Float_more = Blitz_util.Float_more
module Json = Blitz_util.Json

let topologies =
  [
    ("chain", Topology.Chain);
    ("cycle", Topology.Cycle_plus 0);
    ("star", Topology.Star);
    ("clique", Topology.Clique);
  ]

let problem n topo =
  let catalog = Catalog.uniform ~n ~card:100.0 in
  (catalog, Topology.make topo catalog)

(* Largest intermediate a plan materializes: the quantity dpconv
   minimizes, recomputed from the reference cardinalities. *)
let rec plan_bottleneck catalog graph = function
  | Plan.Leaf _ -> 0.0
  | Plan.Join (l, r) as p ->
    Float.max
      (Plan.cardinality catalog graph p)
      (Float.max (plan_bottleneck catalog graph l) (plan_bottleneck catalog graph r))

type point = { n : int; seconds : float; cost : float; work : int; product_free : bool }

let run () =
  Bench_config.header "DPconv: exact-frontier sweep (blitzsplit vs dpccp vs dpconv, kappa_0)";
  let budget = if Bench_config.fast then 0.25 else 2.0 in
  let lo = 6 in
  let cap = if Bench_config.fast then 16 else 26 in
  let model = Cost_model.naive in
  Printf.printf "per-point budget %.2fs, n = %d..%d%s\n" budget lo cap
    (if Bench_config.fast then " (fast mode)" else "");
  let frontiers = Hashtbl.create 16 in
  let gate_failures = ref [] in
  let gate name ok detail =
    if not ok then gate_failures := Printf.sprintf "%s: %s" name detail :: !gate_failures
  in
  List.iter
    (fun (topo_name, topo) ->
      (* One sweep per optimizer; exact's points are kept for the
         bit-identity comparison against dpccp at the same n. *)
      let exact_points = Hashtbl.create 32 in
      let sweep optimizer max_n =
        let points = ref [] in
        let n = ref lo in
        let stop = ref false in
        while (not !stop) && !n <= min cap max_n do
          let catalog, graph = problem !n topo in
          let ctr = Counters.create () in
          let t0 = Bench_config.wall () in
          let o = Bench_opt.run ~optimizer ~counters:ctr model catalog (Some graph) in
          let seconds = Bench_config.wall () -. t0 in
          let plan = Option.get o.Registry.plan in
          let work =
            if optimizer = "dpccp" then ctr.Counters.ccp_pairs else ctr.Counters.loop_iters
          in
          let product_free = Plan.cartesian_join_count graph plan = 0 in
          let pt = { n = !n; seconds; cost = o.Registry.cost; work; product_free } in
          points := pt :: !points;
          if optimizer = "exact" then Hashtbl.replace exact_points !n pt;
          Bench_json.emit ~experiment:"dpconv"
            [
              ("kind", Json.String "point");
              ("topology", Json.String topo_name);
              ("optimizer", Json.String optimizer);
              ("n", Json.Int !n);
              ("seconds", Json.Float seconds);
              ("cost", Json.Float o.Registry.cost);
              ( (if optimizer = "dpccp" then "ccp_pairs" else "split_loop_iters"),
                Json.Int work );
              ("product_free", Json.Bool product_free);
            ];
          if seconds > budget then begin
            Printf.printf "  %-7s %-7s stopped after n=%d (%.2fs > %.2fs budget)\n" topo_name
              optimizer !n seconds budget;
            stop := true
          end;
          incr n
        done;
        let frontier =
          match List.rev !points with
          | [] -> lo - 1
          | pts -> List.fold_left (fun acc p -> if p.seconds <= budget then p.n else acc) (lo - 1) pts
        in
        Hashtbl.replace frontiers (topo_name, optimizer) frontier;
        List.rev !points
      in
      let exact_pts = sweep "exact" Dp_table.max_relations in
      let dpccp_pts = sweep "dpccp" Dpccp.max_relations in
      let dpconv_pts = sweep "dpconv" Dpconv.max_relations in
      (* Bit-identity / dominance gate at every n both DPs finished. *)
      List.iter
        (fun (c : point) ->
          match Hashtbl.find_opt exact_points c.n with
          | None -> ()
          | Some e ->
            if e.product_free then
              gate
                (Printf.sprintf "bit-identity %s n=%d" topo_name c.n)
                (Float_more.within_ulps ~ulps:8 c.cost e.cost)
                (Printf.sprintf "product-free optimum but dpccp %.17g vs exact %.17g" c.cost
                   e.cost)
            else
              gate
                (Printf.sprintf "dominance %s n=%d" topo_name c.n)
                (c.cost >= e.cost *. (1.0 -. 1e-12))
                (Printf.sprintf "dpccp %.17g beat exact %.17g" c.cost e.cost))
        dpccp_pts;
      (* dpconv bottleneck optimality spot-check against the exact
         plan's largest intermediate wherever both ran. *)
      List.iter
        (fun (c : point) ->
          match Hashtbl.find_opt exact_points c.n with
          | None -> ()
          | Some _ ->
            let catalog, graph = problem c.n topo in
            let r = Dpconv.optimize catalog graph in
            let exact_plan =
              Option.get (Bench_opt.run ~counters:(Counters.create ()) model catalog (Some graph))
                .Registry.plan
            in
            let ub = plan_bottleneck catalog graph exact_plan in
            gate
              (Printf.sprintf "bottleneck %s n=%d" topo_name c.n)
              (r.Dpconv.bottleneck <= ub *. (1.0 +. 1e-9))
              (Printf.sprintf "dpconv bottleneck %.17g exceeds exact plan's %.17g"
                 r.Dpconv.bottleneck ub))
        (List.filter (fun (p : point) -> p.n <= 12) dpconv_pts);
      let f opt = Hashtbl.find frontiers (topo_name, opt) in
      Bench_json.emit ~experiment:"dpconv"
        [
          ("kind", Json.String "frontier");
          ("topology", Json.String topo_name);
          ("budget_s", Json.Float budget);
          ("cap_n", Json.Int cap);
          ("fast", Json.Bool Bench_config.fast);
          ("exact_frontier_n", Json.Int (f "exact"));
          ("dpccp_frontier_n", Json.Int (f "dpccp"));
          ("dpconv_frontier_n", Json.Int (f "dpconv"));
        ];
      let work_at pts n =
        match List.find_opt (fun (p : point) -> p.n = n) pts with Some p -> p.work | None -> 0
      in
      Printf.printf
        "  %-7s frontiers within %.2fs: exact n=%d (%d split iters at frontier), dpccp n=%d \
         (%d ccp pairs), dpconv n=%d\n"
        topo_name budget (f "exact")
        (work_at exact_pts (f "exact"))
        (f "dpccp")
        (work_at dpccp_pts (f "dpccp"))
        (f "dpconv");
      ignore dpconv_pts)
    topologies;
  (* Frontier gates: the PR's headline numbers. *)
  let f topo opt = Hashtbl.find frontiers (topo, opt) in
  if Bench_config.fast then
    gate "frontier chain (fast)"
      (f "chain" "dpccp" >= f "chain" "exact")
      (Printf.sprintf "dpccp n=%d < exact n=%d" (f "chain" "dpccp") (f "chain" "exact"))
  else begin
    gate "frontier chain dpccp >= 22" (f "chain" "dpccp" >= 22)
      (Printf.sprintf "got n=%d" (f "chain" "dpccp"));
    gate "frontier cycle dpccp >= 20" (f "cycle" "dpccp" >= 20)
      (Printf.sprintf "got n=%d" (f "cycle" "dpccp"));
    gate "frontier chain exact <= 20" (f "chain" "exact" <= 20)
      (Printf.sprintf "got n=%d (budget too generous for this host?)" (f "chain" "exact"))
  end;
  match !gate_failures with
  | [] -> Printf.printf "\nall dpconv gates passed\n"
  | fails ->
    List.iter (fun m -> Printf.printf "GATE FAILED: %s\n" m) fails;
    failwith (Printf.sprintf "dpconv: %d gate(s) failed" (List.length fails))
