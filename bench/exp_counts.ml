(* Experiment "counts": Section 6.2's execution-count analysis.

   The kappa'' evaluation count must lie between (ln 2 / 2) n 2^n (costs
   widely spaced; nested ifs reject early) and 3^n (costs closely
   spaced).  At mean cardinality 1 every plan costs roughly the same and
   the count approaches 3^n; at large cardinalities it approaches the
   lower bound.  Cliques sit higher than chains (Section 6.3).

   The bounds are for the paper's loop over every ordered split, so the
   counts placed in the range come from that loop: [Split_reference]
   run over the same problem ([Exp_split.ordered_counters]).  The
   production kernel visits each unordered split once; its own count,
   from the registry's exact optimizer, is the last column. *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Counters = Blitz_core.Counters

let run () =
  let n = Bench_config.n in
  Bench_config.header (Printf.sprintf "Section 6.2: kappa'' execution counts at n = %d" n);
  let lower = Counters.predicted_dprime_lower n in
  let upper = Counters.predicted_dprime_upper n in
  Printf.printf "predicted range: lower (ln2/2)n2^n = %.0f, upper 3^n = %.0f\n" lower upper;
  let header =
    [|
      "model";
      "topology";
      "mean card";
      "ordered kappa'' evals";
      "improvements";
      "position in range";
      "kernel kappa'' evals";
    |]
  in
  let rows = ref [] in
  List.iter
    (fun model ->
      List.iter
        (fun topology ->
          List.iter
            (fun mu ->
              let spec =
                Workload.spec ~n ~topology ~model ~mean_card:mu ~variability:0.0
              in
              let catalog, graph = Workload.problem spec in
              let ordered = Exp_split.ordered_counters spec in
              let kernel = Counters.create () in
              ignore (Bench_opt.run ~counters:kernel model catalog (Some graph));
              (* For kappa_0 (kappa'' = 0) the operand-sum count plays the
                 same diagnostic role. *)
              let evals (c : Counters.t) =
                if model.Cost_model.dprime_is_zero then c.Counters.operand_sums
                else c.Counters.dprime_evals
              in
              let position = (float_of_int (evals ordered) -. lower) /. (upper -. lower) in
              rows :=
                [|
                  model.Cost_model.name;
                  Topology.name topology;
                  Printf.sprintf "%.4g" mu;
                  string_of_int (evals ordered);
                  string_of_int ordered.Counters.improvements;
                  Printf.sprintf "%.3f" position;
                  string_of_int (evals kernel);
                |]
                :: !rows)
            [ 1.0; 100.0; 10000.0 ])
        [ Topology.Chain; Topology.Clique ])
    Cost_model.all_paper;
  Blitz_util.Ascii_table.print ~header (Array.of_list (List.rev !rows));
  Printf.printf
    "\nposition 0 = lower bound, 1 = 3^n upper bound, for the paper's ordered loop; expect\n\
     high at mu=1, low at mu=10^4, clique above chain at equal mu (Section 6.3).  The\n\
     kernel column is the production split loop, one visit per unordered split\n"
