(* Experiment "split": nanoseconds per split-loop iteration of the
   monomorphized kernels vs the retained reference kernel
   ([Split_reference], the pre-refactor generic loop), plus the two hard
   microkernel gates:

   - zero-allocation: a warm find_best_split sweep over the whole
     lattice must not move Gc.minor_words for any of the three paper
     models (the specialized kernels keep their loop state in local
     refs that compile to unboxed variables of one [while] loop — a
     regression to boxed floats or closures shows up here
     deterministically, no timing involved);
   - speedup: the specialized kernel must beat the reference by the gate
     ratio on the densest cell (clique, kappa_0, the largest common n),
     best-of-R interleaved minima on both sides.

   Every cell also asserts bit-identity: costs (compared as IEEE bit
   patterns), best_lhs links, extracted plans and all split-loop
   counters must match the reference exactly.  A DP sweep in increasing
   subset order is idempotent — every proper subset of s is numerically
   smaller than s, so each sweep sees exactly the table state the
   previous one wrote — which is what lets us re-run the kernel over a
   converged table as a timing loop.

   `bench split --json BENCH_split.json` commits the measured
   trajectory; the "gates" record carries the pass/fail verdicts. *)

module Catalog = Blitz_catalog.Catalog
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Workload = Blitz_workload.Workload
module Dp_table = Blitz_core.Dp_table
module Split_loop = Blitz_core.Split_loop
module Counters = Blitz_core.Counters
module Json = Blitz_util.Json

(* Gates (full mode).  Fast mode keeps both gates armed — CI runs it —
   but relaxes the speedup ratio: at n <= 12 the whole sweep is short
   and fits in L2, so the reference's per-subset closure calls and
   per-split [dprime_is_zero] test are a smaller share of it and the
   specialization win is structurally smaller there. *)
let speedup_gate = 1.25
let speedup_gate_fast = 1.05

let fill_properties tbl model graph =
  for s = 3 to Dp_table.size tbl - 1 do
    if s land (s - 1) <> 0 then Split_loop.compute_properties_join tbl model graph s
  done

(* One full kernel sweep over the non-singleton subsets in increasing
   order.  [kernel] is either find_best_split or the reference's. *)
let sweep kernel tbl model ctr =
  let last = Dp_table.size tbl - 1 in
  for s = 3 to last do
    if s land (s - 1) <> 0 then kernel tbl model ctr ~threshold:Float.infinity s
  done

(* Minor-heap words allocated across [f], net of the sampling overhead
   (Gc.minor_words itself returns a boxed float, so even a noop measures
   one box; subtract that baseline). *)
let minor_delta f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let noop_baseline = minor_delta (fun () -> ())

type cell = {
  topology : Topology.t;
  model : Cost_model.t;
  n : int;
  subsets : int;
  iters : int;
  ref_ns : float;
  new_ns : float;
  minor_words_per_call : float;
  rounds : int;
}

let prepared_table spec =
  let catalog, graph = Workload.problem spec in
  let tbl = Dp_table.create ~with_pi_fan:true spec.Workload.n in
  Split_loop.init_singletons tbl spec.Workload.model catalog;
  fill_properties tbl spec.Workload.model graph;
  tbl

let check_bit_identity ~label tblR tblN ctrR ctrN =
  let fail fmt = Printf.ksprintf failwith ("split: " ^^ fmt) in
  for s = 1 to Dp_table.size tblR - 1 do
    if
      Int64.bits_of_float tblR.Dp_table.cost.(s) <> Int64.bits_of_float tblN.Dp_table.cost.(s)
    then
      fail "%s: cost diverged at subset %d: %.17g vs %.17g" label s tblR.Dp_table.cost.(s)
        tblN.Dp_table.cost.(s);
    if tblR.Dp_table.best_lhs.(s) <> tblN.Dp_table.best_lhs.(s) then
      fail "%s: best_lhs diverged at subset %d: %d vs %d" label s tblR.Dp_table.best_lhs.(s)
        tblN.Dp_table.best_lhs.(s)
  done;
  let full = Dp_table.size tblR - 1 in
  if Dp_table.extract_plan tblR full <> Dp_table.extract_plan tblN full then
    fail "%s: extracted plans diverged" label;
  let check name a b = if a <> b then fail "%s: counter %s diverged: %d vs %d" label name a b in
  check "subsets" ctrR.Counters.subsets ctrN.Counters.subsets;
  check "loop_iters" ctrR.Counters.loop_iters ctrN.Counters.loop_iters;
  check "operand_sums" ctrR.Counters.operand_sums ctrN.Counters.operand_sums;
  check "dprime_evals" ctrR.Counters.dprime_evals ctrN.Counters.dprime_evals;
  check "improvements" ctrR.Counters.improvements ctrN.Counters.improvements;
  check "threshold_skips" ctrR.Counters.threshold_skips ctrN.Counters.threshold_skips;
  check "infeasible" ctrR.Counters.infeasible ctrN.Counters.infeasible

let measure_cell ~rounds spec =
  let model = spec.Workload.model and n = spec.Workload.n in
  let label = Workload.describe spec in
  (* Two independently converged tables: the reference's and the
     specialized kernel's, bit-compared afterwards. *)
  let tblR = prepared_table spec and tblN = prepared_table spec in
  let ctrR = Counters.create () and ctrN = Counters.create () in
  sweep Split_reference.find_best_split tblR model ctrR;
  sweep Split_loop.find_best_split tblN model ctrN;
  check_bit_identity ~label tblR tblN ctrR ctrN;
  let subsets = ctrN.Counters.subsets and iters = ctrN.Counters.loop_iters in
  (* Allocation gate input: a warm sweep of the specialized kernel (the
     two sweeps above warmed both tables and the code paths). *)
  let scratch = Counters.create () in
  let minor_words =
    minor_delta (fun () -> sweep Split_loop.find_best_split tblN model scratch)
    -. noop_baseline
  in
  (* Interleaved best-of-R: alternate reference and specialized sweeps
     so drift (frequency scaling, competing load) hits both kernels
     symmetrically; keep each side's minimum. *)
  let ref_best = ref Float.infinity and new_best = ref Float.infinity in
  for _ = 1 to rounds do
    let t0 = Bench_config.wall () in
    sweep Split_reference.find_best_split tblR model scratch;
    ref_best := Float.min !ref_best (Bench_config.wall () -. t0);
    let t0 = Bench_config.wall () in
    sweep Split_loop.find_best_split tblN model scratch;
    new_best := Float.min !new_best (Bench_config.wall () -. t0)
  done;
  let per_iter s = s *. 1e9 /. float_of_int iters in
  {
    topology = spec.Workload.topology;
    model;
    n;
    subsets;
    iters;
    ref_ns = per_iter !ref_best;
    new_ns = per_iter !new_best;
    minor_words_per_call = minor_words /. float_of_int subsets;
    rounds;
  }

let run () =
  Bench_config.header "Split: ns per split-loop iteration, specialized kernels vs reference";
  let fast = Bench_config.fast in
  let ns = if fast then [ 10; 12 ] else [ 12; 14; 15; 16; 18 ] in
  let topologies = [ Topology.Chain; Topology.Star; Topology.Clique ] in
  let models = [ Cost_model.naive; Cost_model.sort_merge; Cost_model.kdnl ] in
  let gate_n = List.fold_left max 0 (List.filter (fun n -> n <= 15) ns) in
  let gate = if fast then speedup_gate_fast else speedup_gate in
  Printf.printf
    "grid: {chain,star,clique} x {k0,ksm,kdnl} x n=%s; best-of-R interleaved minima\n"
    (String.concat "," (List.map string_of_int ns));
  let cells = ref [] in
  List.iter
    (fun n ->
      let rounds = if fast then 5 else if n <= 16 then 7 else 3 in
      if (not fast) && n > 16 then
        Printf.printf "note: n=%d uses best-of-%d (each sweep is ~3^%d iterations)\n" n rounds n;
      List.iter
        (fun topology ->
          List.iter
            (fun model ->
              let spec =
                Workload.spec ~n ~topology ~model ~mean_card:100.0 ~variability:(1.0 /. 3.0)
              in
              let cell = measure_cell ~rounds spec in
              cells := cell :: !cells;
              Bench_json.emit ~experiment:"split"
                [
                  ("topology", Json.String (Topology.name topology));
                  ("model", Json.String model.Cost_model.name);
                  ("kernel", Json.String (Split_loop.variant model));
                  ("n", Json.Int n);
                  ("subsets", Json.Int cell.subsets);
                  ("iters_per_sweep", Json.Int cell.iters);
                  ("rounds", Json.Int cell.rounds);
                  ("reference_ns_per_iter", Json.Float cell.ref_ns);
                  ("specialized_ns_per_iter", Json.Float cell.new_ns);
                  ("speedup", Json.Float (cell.ref_ns /. cell.new_ns));
                  ("minor_words_per_call", Json.Float cell.minor_words_per_call);
                  ("bit_identical", Json.Bool true);
                ])
            models)
        topologies)
    ns;
  let cells = List.rev !cells in
  let header =
    [| "topology"; "model"; "kernel"; "n"; "ref ns/it"; "spec ns/it"; "speedup"; "mw/call" |]
  in
  let rows =
    List.map
      (fun c ->
        [|
          Topology.name c.topology;
          c.model.Cost_model.name;
          Split_loop.variant c.model;
          string_of_int c.n;
          Printf.sprintf "%.2f" c.ref_ns;
          Printf.sprintf "%.2f" c.new_ns;
          Printf.sprintf "%.2fx" (c.ref_ns /. c.new_ns);
          Printf.sprintf "%.3f" c.minor_words_per_call;
        |])
      cells
  in
  Blitz_util.Ascii_table.print ~header (Array.of_list rows);
  Printf.printf
    "\nbit-identity: every cell matched the reference (costs, best_lhs, plans, counters)\n";
  (* Zero-allocation gate: every paper-model cell, not just the gated
     one — the three kernels have different loop bodies and each must
     stay allocation-free. *)
  let leaks =
    List.filter (fun c -> c.minor_words_per_call <> 0.0) cells
  in
  if leaks <> [] then begin
    List.iter
      (fun c ->
        Printf.printf "ALLOCATION: %s %s n=%d: %.3f minor words/call\n" (Topology.name c.topology)
          c.model.Cost_model.name c.n c.minor_words_per_call)
      leaks;
    failwith "split: zero-allocation gate failed"
  end;
  Printf.printf "zero-allocation gate: PASS (Gc.minor_words delta = 0 across warm sweeps)\n";
  (* Speedup gate on the densest common cell: clique, kappa_0 at the
     largest n <= 15 in the grid (n=15 full, n=12 fast). *)
  let gated =
    List.find
      (fun c -> c.topology = Topology.Clique && c.model.Cost_model.name = "k0" && c.n = gate_n)
      cells
  in
  let speedup = gated.ref_ns /. gated.new_ns in
  Bench_json.emit ~experiment:"split"
    [
      ("record", Json.String "gates");
      ("zero_allocation", Json.String "pass");
      ("speedup_gate_cell", Json.String (Printf.sprintf "clique/k0/n=%d" gate_n));
      ("speedup_gate_threshold", Json.Float gate);
      ("speedup_measured", Json.Float speedup);
      ("fast", Json.Bool fast);
    ];
  if speedup < gate then
    failwith
      (Printf.sprintf "split: speedup gate failed on clique/k0/n=%d: %.2fx < %.2fx" gate_n
         speedup gate)
  else Printf.printf "speedup gate: PASS (%.2fx >= %.2fx on clique/k0/n=%d)\n" speedup gate gate_n;
  Printf.printf "all split gates passed\n"
