module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Topology = Blitz_graph.Topology
module Workload = Blitz_workload.Workload
module Registry = Blitz_engine.Registry
module B = Blitz_baselines
module Obs = Blitz_obs.Obs
module Json = Blitz_util.Json

type summary = { samples : int; min : float; mean : float; p50 : float; p90 : float; max : float }

type cell = {
  optimizer : string;
  topology : string;
  level : float;
  regrets : float array;  (* ascending *)
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
  optima : (string * float) list;  (* topology -> true optimal cost *)
  cells : cell list;
}

(* Nearest-rank on a sorted sample; exact quantile machinery would be
   false precision at a handful of seeds per cell. *)
let quantile sorted q =
  let m = Array.length sorted in
  if m = 0 then Float.nan
  else sorted.(min (m - 1) (int_of_float ((float_of_int (m - 1) *. q) +. 0.5)))

let summarize regrets =
  let m = Array.length regrets in
  if m = 0 then { samples = 0; min = nan; mean = nan; p50 = nan; p90 = nan; max = nan }
  else
    {
      samples = m;
      min = regrets.(0);
      mean = Array.fold_left ( +. ) 0.0 regrets /. float_of_int m;
      p50 = quantile regrets 0.5;
      p90 = quantile regrets 0.9;
      max = regrets.(m - 1);
    }

(* The regret distribution as a process metric, labelled per optimizer:
   a serving stack alerting on estimate-error damage watches this. *)
let m_regret name =
  Obs.Metrics.histogram ~help:"Plan-cost regret (chosen/optimal) under perturbed statistics"
    ~labels:[ ("optimizer", name) ]
    "blitz_regret_ratio"

(* A stable arithmetic mix so every (topology, level, base-seed) point
   draws an independent — and reproducible — noise stream.  Every
   optimizer at the point sees the *same* perturbed catalog: regret
   comparisons are paired. *)
let derive_seed ~seed ~topology_index ~level_index =
  (seed * 1000003) + (topology_index * 8191) + (level_index * 127) + 1

(* Excluding only the correctness oracle: [bruteforce] enumerates every
   bushy plan and exists for tiny-n tests, not for sweeps. *)
let default_optimizers () = List.filter (fun n -> n <> "bruteforce") (Registry.names ())

(* The true statistics every sweep perturbs. *)
let mean_card = 1000.0
let variability = 1.0 /. 3.0

let run ?(mode = Noise.Lognormal) ?optimizers ?(topologies = Topology.all_paper)
    ?(levels = [ 0.0; 0.5; 1.0; 2.0 ]) ?(seeds = [ 1; 2; 3; 4; 5 ]) ?multiway ~n model =
  if levels = [] || seeds = [] || topologies = [] then
    invalid_arg "Regret.run: levels, seeds and topologies must be non-empty";
  let optimizers = match optimizers with Some o -> o | None -> default_optimizers () in
  let entries = List.map (fun name -> (name, Registry.find_exn name)) optimizers in
  (* One sequential ctx for the whole sweep: the harness's results must
     not depend on domain count, and the exact DP is bit-identical
     sequential vs rank-parallel anyway.  With [multiway] the capable
     optimizers plan n-ary nodes against the perturbed statistics and
     are then judged by [Plan.cost] under the true ones — which
     re-solves the AGM bound from the true catalog, never trusting the
     stored one. *)
  let ctx = Registry.ctx ?multiway model in
  let optima = ref [] in
  let cells = ref [] in
  List.iteri
    (fun topology_index topology ->
      let spec = Workload.spec ~n ~topology ~model ~mean_card ~variability in
      let catalog, graph = Workload.problem spec in
      let is_tree = B.Ikkbz.is_tree graph in
      let opt = (Registry.find_exn "exact").Registry.optimize ctx (Registry.problem ~graph catalog) in
      let opt_cost = opt.Registry.cost in
      let tname = Topology.name topology in
      optima := (tname, opt_cost) :: !optima;
      let eligible =
        List.filter
          (fun (_, e) -> Result.is_ok (Registry.eligible e ~n ~is_tree))
          entries
      in
      List.iteri
        (fun level_index level ->
          let acc = List.map (fun (name, _) -> (name, ref [])) eligible in
          List.iter
            (fun seed ->
              let noise_seed = derive_seed ~seed ~topology_index ~level_index in
              let pcat, pgraph = Noise.perturb ~mode ~level ~seed:noise_seed catalog graph in
              let problem = Registry.problem ~graph:pgraph pcat in
              List.iter
                (fun (name, entry) ->
                  match (entry.Registry.optimize ctx problem).Registry.plan with
                  | None -> ()
                  | Some plan ->
                      (* The optimizer believed the perturbed numbers;
                         judge its choice under the true ones. *)
                      let true_cost = Plan.cost model catalog graph plan in
                      let regret = true_cost /. opt_cost in
                      if Obs.Metrics.enabled () then Obs.Metrics.observe (m_regret name) regret;
                      let r = List.assoc name acc in
                      r := regret :: !r)
                eligible)
            seeds;
          List.iter
            (fun (name, r) ->
              let regrets = Array.of_list !r in
              Array.sort Float.compare regrets;
              cells :=
                { optimizer = name; topology = tname; level; regrets; summary = summarize regrets }
                :: !cells)
            acc)
        levels)
    topologies;
  {
    n;
    model_name = model.Cost_model.name;
    mode;
    mean_card;
    variability;
    levels;
    seeds;
    optimizers;
    topologies = List.map Topology.name topologies;
    optima = List.rev !optima;
    cells = List.rev !cells;
  }

let cell_to_json c =
  Json.Obj
    [
      ("optimizer", Json.String c.optimizer);
      ("topology", Json.String c.topology);
      ("level", Json.Float c.level);
      ("samples", Json.Int c.summary.samples);
      ("min", Json.Float c.summary.min);
      ("mean", Json.Float c.summary.mean);
      ("p50", Json.Float c.summary.p50);
      ("p90", Json.Float c.summary.p90);
      ("max", Json.Float c.summary.max);
      ("regrets", Json.List (Array.to_list (Array.map (fun r -> Json.Float r) c.regrets)));
    ]

let report_to_json r =
  Json.Obj
    [
      ("n", Json.Int r.n);
      ("model", Json.String r.model_name);
      ("mode", Json.String (Noise.mode_name r.mode));
      ("mean_card", Json.Float r.mean_card);
      ("variability", Json.Float r.variability);
      ("levels", Json.List (List.map (fun l -> Json.Float l) r.levels));
      ("seeds", Json.List (List.map (fun s -> Json.Int s) r.seeds));
      ("optimizers", Json.List (List.map (fun o -> Json.String o) r.optimizers));
      ("topologies", Json.List (List.map (fun t -> Json.String t) r.topologies));
      ( "optima",
        Json.Obj (List.map (fun (t, c) -> (t, Json.Float c)) r.optima) );
      ("cells", Json.List (List.map cell_to_json r.cells));
    ]

let pp ppf r =
  Format.fprintf ppf "@[<v>regret vs true optimum (n=%d, %s, %s noise; %d seeds/cell)@,@," r.n
    r.model_name (Noise.mode_name r.mode) (List.length r.seeds);
  List.iter
    (fun tname ->
      Format.fprintf ppf "%s:@," tname;
      Format.fprintf ppf "  %-22s" "optimizer";
      List.iter (fun l -> Format.fprintf ppf "  level %-6.2g" l) r.levels;
      Format.fprintf ppf "@,";
      List.iter
        (fun oname ->
          let row =
            List.filter (fun c -> c.topology = tname && c.optimizer = oname) r.cells
          in
          if row <> [] then begin
            Format.fprintf ppf "  %-22s" oname;
            List.iter
              (fun l ->
                match List.find_opt (fun c -> c.level = l) row with
                | Some c when c.summary.samples > 0 ->
                    Format.fprintf ppf "  %-12.4g" c.summary.mean
                | Some _ | None -> Format.fprintf ppf "  %-12s" "-")
              r.levels;
            Format.fprintf ppf "@,"
          end)
        r.optimizers;
      Format.fprintf ppf "@,")
    r.topologies;
  Format.fprintf ppf "@]"
