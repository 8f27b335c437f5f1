(* Plan-cost thresholds and re-optimization (Section 6.4).

   Run with:  dune exec examples/threshold_demo.exe

   A threshold simulates cost overflow far below real float overflow:
   any subset whose plans all cost at least the threshold is abandoned,
   which can skip most of the split-loop work.  If the threshold was too
   ambitious, optimization fails and reruns with a larger one — cheap
   queries optimize faster, expensive queries pay an extra pass. *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Counters = Blitz_core.Counters
module Registry = Blitz_engine.Registry

let () =
  let n = 14 in
  let spec =
    Workload.spec ~n ~topology:Topology.Chain ~model:Cost_model.naive ~mean_card:10_000.0
      ~variability:0.0
  in
  let catalog, graph = Workload.problem spec in
  let problem = Registry.problem ~graph catalog in
  (* The exact optimizer, plain or from a plan-cost threshold. *)
  let exact ?threshold ?growth counters =
    Registry.optimize (Registry.ctx ~counters ?threshold ?growth Cost_model.naive) problem
  in

  (* Unthresholded baseline. *)
  let base_counters = Counters.create () in
  let base = exact base_counters in
  Printf.printf "no threshold:    cost %.6g, split-loop iterations %d\n" base.Registry.cost
    base_counters.Counters.loop_iters;

  (* A comfortable threshold: one pass, far less work. *)
  let t1_counters = Counters.create () in
  let t1 = exact ~threshold:1e9 t1_counters in
  Printf.printf "threshold 1e9:   cost %.6g, split-loop iterations %d, passes %d (%.1fx less work)\n"
    t1.Registry.cost t1_counters.Counters.loop_iters t1.Registry.passes
    (float_of_int base_counters.Counters.loop_iters /. float_of_int (max 1 t1_counters.Counters.loop_iters));

  (* An over-ambitious threshold: fails, retries, still exact. *)
  let t2 = exact ~growth:100.0 ~threshold:10.0 (Counters.create ()) in
  Printf.printf "threshold 10:    cost %.6g, passes %d, final threshold %g\n" t2.Registry.cost
    t2.Registry.passes t2.Registry.final_threshold;

  assert (base.Registry.cost = t1.Registry.cost);
  assert (base.Registry.cost = t2.Registry.cost);
  print_endline "all three agree on the optimal cost (threshold search is exact)"
