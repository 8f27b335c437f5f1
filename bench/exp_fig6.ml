(* Experiment "fig6": plan-cost thresholds (Section 6.4) on the two
   Figure 5 cells —
     (a) kappa_0 x chain with threshold 10^9;
     (b) kappa_dnl x cycle+3 with thresholds 10^5 and 10^14.

   Every column runs the exact optimizer; the threshold columns start
   it from a threshold.  Expected shape: thresholded optimization drops
   well below the unthresholded time as mean cardinality rises (to
   ~0.1s at n=15 in the paper for (a)); where a threshold is exceeded,
   multiple passes cause "ripples" — visible here as pass counts > 1
   and time bumps. *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Registry = Blitz_engine.Registry

let run_cell ~n ~label model topology thresholds =
  Printf.printf "\n-- %s model %s, topology %s, variability 0 --\n" label
    model.Cost_model.name (Topology.name topology);
  let header =
    Array.concat
      ([ [| "mean card"; "no threshold (s)" |] ]
      @ List.map
          (fun t -> [| Printf.sprintf "T=%.0e (s)" t; Printf.sprintf "passes@%.0e" t |])
          thresholds)
  in
  let rows =
    Array.map
      (fun mu ->
        let spec = Workload.spec ~n ~topology ~model ~mean_card:mu ~variability:0.0 in
        let catalog, graph = Workload.problem spec in
        let base =
          Bench_config.time (fun () -> ignore (Bench_opt.run model catalog (Some graph)))
        in
        let with_threshold t =
          let passes = ref 0 in
          let seconds =
            Bench_config.time (fun () ->
                let outcome = Bench_opt.run ~threshold:t model catalog (Some graph) in
                passes := outcome.Registry.passes)
          in
          (seconds, !passes)
        in
        let threshold_cols =
          List.concat_map
            (fun t ->
              let s, p = with_threshold t in
              [ Bench_config.seconds s; string_of_int p ])
            thresholds
        in
        Array.of_list ((Printf.sprintf "%.4g" mu :: Bench_config.seconds base :: threshold_cols)))
      Bench_config.mean_cards_fig5
  in
  Blitz_util.Ascii_table.print ~header rows

let run () =
  let n = Bench_config.n in
  Bench_config.header
    (Printf.sprintf "Figure 6: optimization with plan-cost thresholds at n = %d" n);
  run_cell ~n ~label:"(a)" Cost_model.naive Topology.Chain [ 1e9 ];
  run_cell ~n ~label:"(b)" Cost_model.kdnl (Topology.Cycle_plus 3) [ 1e5; 1e14 ]
