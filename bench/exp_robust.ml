(* Experiment "robust": regret under cardinality-estimate error.

   The harness perturbs the catalog each optimizer sees (log-normal
   multiplicative error, [level] decades of standard deviation), then
   judges the chosen plan under the true statistics: regret =
   true cost of chosen plan / true optimal cost.

   Two acceptance gates ride along:

   1. Exact methods at level 0 have regret exactly 1 (the perturbation
      at level 0 is the identity, so the DP's plan *is* the optimum) —
      within 1e-9 for re-costing round-off, which the repo's costing
      invariants keep at zero.

   2. The estimate-free simpli-squared tier is noise-invariant: its
      regret samples are bit-identical across every error level of a
      topology, because it never reads the numbers being perturbed.

   `bench robust --json BENCH_robust.json` refreshes the committed
   artifact. *)

module Cost_model = Blitz_cost.Cost_model
module Regret = Blitz_robust.Regret
module Noise = Blitz_robust.Noise
module Json = Blitz_util.Json

let levels = if Bench_config.fast then [ 0.0; 1.0 ] else [ 0.0; 0.5; 1.0; 2.0 ]
let seeds = if Bench_config.fast then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ]
(* cycle+3 needs n >= 9 *)
let n = if Bench_config.fast then 9 else 11

let gate_exact_at_zero (r : Regret.report) =
  List.iter
    (fun (c : Regret.cell) ->
      if c.Regret.optimizer = "exact" && c.Regret.level = 0.0 then
        Array.iter
          (fun regret ->
            if Float.abs (regret -. 1.0) > 1e-9 then
              failwith
                (Printf.sprintf "robust gate: exact regret %.17g <> 1 at level 0 (%s)" regret
                   c.Regret.topology))
          c.Regret.regrets)
    r.Regret.cells

let gate_simpli_invariant (r : Regret.report) =
  List.iter
    (fun topology ->
      let rows =
        List.filter
          (fun (c : Regret.cell) ->
            c.Regret.optimizer = "simpli-squared" && c.Regret.topology = topology)
          r.Regret.cells
      in
      match rows with
      | [] -> failwith "robust gate: no simpli-squared cells"
      | first :: rest ->
        List.iter
          (fun (c : Regret.cell) ->
            if c.Regret.regrets <> first.Regret.regrets then
              failwith
                (Printf.sprintf "robust gate: simpli-squared regret varies with noise (%s)"
                   topology))
          rest)
    r.Regret.topologies

let run () =
  Bench_config.header "Experiment robust: plan-cost regret under estimate error";
  let t0 = Bench_config.wall () in
  let report = Regret.run ~mode:Noise.Lognormal ~levels ~seeds ~n Cost_model.kdnl in
  let elapsed = Bench_config.wall () -. t0 in
  gate_exact_at_zero report;
  gate_simpli_invariant report;
  Format.printf "%a@." Regret.pp report;
  Printf.printf "gates: exact regret = 1 at level 0; simpli-squared noise-invariant — OK\n";
  Printf.printf "swept %d cells in %s s\n" (List.length report.Regret.cells)
    (Bench_config.seconds elapsed);
  List.iter
    (fun (c : Regret.cell) ->
      Bench_json.emit ~experiment:"robust"
        [
          ("optimizer", Json.String c.Regret.optimizer);
          ("topology", Json.String c.Regret.topology);
          ("level", Json.Float c.Regret.level);
          ("samples", Json.Int c.Regret.summary.Regret.samples);
          ("min", Json.Float c.Regret.summary.Regret.min);
          ("mean", Json.Float c.Regret.summary.Regret.mean);
          ("p50", Json.Float c.Regret.summary.Regret.p50);
          ("p90", Json.Float c.Regret.summary.Regret.p90);
          ("max", Json.Float c.Regret.summary.Regret.max);
        ])
    report.Regret.cells;
  Bench_json.emit ~experiment:"robust-config"
    [
      ("n", Json.Int report.Regret.n);
      ("model", Json.String report.Regret.model_name);
      ("mode", Json.String (Noise.mode_name report.Regret.mode));
      ("levels", Json.List (List.map (fun l -> Json.Float l) report.Regret.levels));
      ("seeds", Json.List (List.map (fun s -> Json.Int s) report.Regret.seeds));
      ( "optima",
        Json.Obj (List.map (fun (t, c) -> (t, Json.Float c)) report.Regret.optima) );
    ]
