(* Statistically robust micro-benchmarks: one Bechamel test per paper
   table/figure, each timing the kernel that experiment sweeps (at a
   single representative grid point so a bechamel run stays quick; the
   full sweeps live in the exp_* harnesses). *)

open Bechamel
open Toolkit
module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Catalog = Blitz_catalog.Catalog
module B = Blitz_baselines

let bench_n = if Bench_config.fast then 10 else 12

let problem ~model ~topology ~mu ~v =
  let spec = Workload.spec ~n:bench_n ~topology ~model ~mean_card:mu ~variability:v in
  Workload.problem spec

let table1_test =
  let catalog = Catalog.of_list [ ("A", 10.0); ("B", 20.0); ("C", 30.0); ("D", 40.0) ] in
  Test.make ~name:"table1: 4-way product DP"
    (Staged.stage (fun () -> ignore (Bench_opt.run Cost_model.naive catalog None)))

let fig2_test =
  let catalog = Catalog.uniform ~n:bench_n ~card:100.0 in
  Test.make
    ~name:(Printf.sprintf "fig2: %d-way product DP" bench_n)
    (Staged.stage (fun () -> ignore (Bench_opt.run Cost_model.naive catalog None)))

let fig4_test =
  let catalog, graph = problem ~model:Cost_model.kdnl ~topology:Topology.Clique ~mu:100.0 ~v:0.5 in
  Test.make
    ~name:(Printf.sprintf "fig4: n=%d clique kdnl mu=100" bench_n)
    (Staged.stage (fun () -> ignore (Bench_opt.run Cost_model.kdnl catalog (Some graph))))

let fig5a_test =
  let catalog, graph = problem ~model:Cost_model.naive ~topology:Topology.Chain ~mu:100.0 ~v:0.0 in
  Test.make
    ~name:(Printf.sprintf "fig5a: n=%d chain k0 mu=100" bench_n)
    (Staged.stage (fun () -> ignore (Bench_opt.run Cost_model.naive catalog (Some graph))))

let fig5b_test =
  let catalog, graph =
    problem ~model:Cost_model.kdnl ~topology:(Topology.Cycle_plus 3) ~mu:100.0 ~v:0.0
  in
  Test.make
    ~name:(Printf.sprintf "fig5b: n=%d cycle+3 kdnl mu=100" bench_n)
    (Staged.stage (fun () -> ignore (Bench_opt.run Cost_model.kdnl catalog (Some graph))))

let fig6_test =
  let catalog, graph = problem ~model:Cost_model.naive ~topology:Topology.Chain ~mu:1e4 ~v:0.0 in
  Test.make
    ~name:(Printf.sprintf "fig6: n=%d chain k0 mu=1e4, threshold 1e9" bench_n)
    (Staged.stage (fun () ->
         ignore (Bench_opt.run ~threshold:1e9 Cost_model.naive catalog (Some graph))))

let counts_test =
  let catalog, graph = problem ~model:Cost_model.sort_merge ~topology:Topology.Clique ~mu:1.0 ~v:0.0 in
  Test.make
    ~name:(Printf.sprintf "counts: n=%d clique ksm mu=1 (worst case)" bench_n)
    (Staged.stage (fun () -> ignore (Bench_opt.run Cost_model.sort_merge catalog (Some graph))))

let compare_test =
  let catalog, graph = problem ~model:Cost_model.kdnl ~topology:Topology.Star ~mu:100.0 ~v:0.5 in
  Test.make
    ~name:(Printf.sprintf "compare: n=%d star dpsize enumerator" bench_n)
    (Staged.stage (fun () -> ignore (B.Dpsize.optimize Cost_model.kdnl catalog graph)))

let suite =
  Test.make_grouped ~name:"blitz" ~fmt:"%s %s"
    [
      table1_test;
      fig2_test;
      fig4_test;
      fig5a_test;
      fig5b_test;
      fig6_test;
      counts_test;
      compare_test;
    ]

let run () =
  Bench_config.header "Bechamel micro-benchmarks (one per table/figure)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ minor_allocated; major_allocated; monotonic_clock ] in
  let quota = if Bench_config.fast then 0.25 else 1.0 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) () in
  let raw_results = Benchmark.all cfg instances suite in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let results = Analyze.merge ols instances results in
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ minor_allocated; major_allocated; monotonic_clock ];
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run results
  in
  Notty_unix.output_image (Notty_unix.eol img)
