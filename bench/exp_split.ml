(* Experiment "split": nanoseconds per ordered split of the
   monomorphized kernels vs the retained reference kernel
   ([Split_reference], the paper's generic loop over every ordered
   split), plus the two hard microkernel gates:

   - zero-allocation: a warm find_best_split sweep over the whole
     lattice must not move Gc.minor_words for any of the three paper
     models (the specialized kernels keep their loop state in local
     refs that compile to unboxed variables of one [while] loop — a
     regression to boxed floats or closures shows up here
     deterministically, no timing involved), and neither may warm
     passes of sweep 1 ([Split_loop.sweep]: properties and §6.4's skip
     test), join and product, plain and seeded at the upper bound (the
     paper models' aux and kappa' are computed in place, not through
     the closures);
   - speedup: the specialized kernel must beat the reference by the gate
     ratio on the densest cell (clique, kappa_0, the largest common n),
     best-of-R interleaved minima on both sides.

   Both kernels' sweep times are divided by the same count, the
   reference's ordered splits (2^|s| - 2 per subset): the specialized
   kernels visit each unordered split once, so per-iteration rates would
   credit the reference with half its real work.  The speedup gate
   therefore mostly measures that halving; each cell also records the
   specialized kernel's ns per its own (unordered) iteration, the figure
   to watch for a slower loop body.  Every cell also
   asserts bit-identity: costs (compared as IEEE bit patterns), best_lhs
   links and extracted plans must match the reference exactly, the
   specialized kernels' loop_iters must be exactly half the reference's,
   their operand-sum and kappa'' counts no larger, and every other
   counter equal.  A DP sweep in increasing
   subset order is idempotent — every proper subset of s is numerically
   smaller than s, so each sweep sees exactly the table state the
   previous one wrote — which is what lets us re-run the kernel over a
   converged table as a timing loop.

   A second section times seeded passes: one §6.4 pass on the calling
   domain at [Registry.upper_bound], through an arena, as the
   exact tier runs it, on stars with the hub last (relation n - 1, whose
   subsets scan the live-operand index) and first (relation 0, whose
   subsets walk), cliques and chains under the three paper models.  Each
   cell records the pass's loop_iters, its best-of-R time and the minor
   words of a warm pass; the zero-allocation gate also requires a warm
   seeded pass to allocate the same words at both sizes, so nothing per
   subset or per index entry allocates.

   A third section times sweep 1 alone, seeded at the upper bound as
   the exact tier runs it: ns per subset on chains under kappa_dnl,
   cliques under kappa_0 and stars (hub last) under kappa_sm, best-of-R,
   with the subsets the pass skipped, at two sizes, in one block on the
   calling domain and in four blocks on a 2-domain pool (wall-clock, so
   every cell is marked advisory on a host with fewer than two cores).
   Its warm passes join the zero-allocation gate: none may allocate on
   the calling domain, and a pool's must allocate the same words at
   both sizes (what [Pool.run] and the block dispatch cost, nothing per
   subset).

   `bench split --json BENCH_split.json` commits the measured
   trajectory; the "gates" record carries the pass/fail verdicts. *)

module Catalog = Blitz_catalog.Catalog
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Workload = Blitz_workload.Workload
module Dp_table = Blitz_core.Dp_table
module Split_loop = Blitz_core.Split_loop
module Counters = Blitz_core.Counters
module Blitzsplit = Blitz_core.Blitzsplit
module Arena = Blitz_core.Arena
module Live_index = Blitz_core.Live_index
module Join_graph = Blitz_graph.Join_graph
module Pool = Blitz_parallel.Pool
module Registry = Blitz_engine.Registry
module Json = Blitz_util.Json

(* Gates (full mode).  Fast mode keeps both gates armed — CI runs it —
   but relaxes the speedup ratio: at n <= 12 the whole sweep is short
   and fits in L2, so the reference's per-subset closure calls and
   per-split [dprime_is_zero] test are a smaller share of it and the
   specialization win is structurally smaller there. *)
let speedup_gate = 1.25
let speedup_gate_fast = 1.05

let fill_properties tbl model =
  for s = 3 to Dp_table.size tbl - 1 do
    if s land (s - 1) <> 0 then Split_loop.compute_properties_join tbl model s
  done

(* A table with every subset's cardinality and aux filled in and the
   singletons' costs set: ready for [sweep]. *)
let prepared_table spec =
  let catalog, graph = Workload.problem spec in
  let tbl = Dp_table.create ~with_pi_fan:true spec.Workload.n in
  Split_loop.init_singletons ~graph:(Some graph) tbl spec.Workload.model catalog;
  fill_properties tbl spec.Workload.model;
  tbl

(* One full kernel sweep over the non-singleton subsets in increasing
   order.  [kernel] is either find_best_split or the reference's; over a
   [prepared_table] this is the whole unthresholded DP. *)
let sweep kernel tbl model ctr =
  let last = Dp_table.size tbl - 1 in
  for s = 3 to last do
    if s land (s - 1) <> 0 then kernel tbl model ctr ~threshold:Float.infinity s
  done

(* The paper's ordered split loop over the whole unthresholded DP of
   [spec]: [Split_reference] swept over a [prepared_table].  Its counters
   are the ones Section 6.2's bounds speak about; the "counts" and
   "ablation" experiments report them next to the production kernel's. *)
let ordered_counters spec =
  let tbl = prepared_table spec and ctr = Counters.create () in
  sweep Split_reference.find_best_split tbl spec.Workload.model ctr;
  ctr

(* Minor-heap words allocated across [f], net of the sampling overhead
   (Gc.minor_words itself returns a boxed float, so even a noop measures
   one box; subtract that baseline). *)
let minor_delta f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let noop_baseline = minor_delta (fun () -> ())

(* The upper bound the exact tier seeds a §6.4 pass with. *)
let upper_bound model catalog graph =
  match Registry.upper_bound (Registry.heuristics model (Registry.problem ~graph catalog)) with
  | Some b -> b.Registry.value
  | None -> Float.infinity

(* One sweep 1 over [tbl], a join pass with [graph] or a product pass
   without, its rank lists started as [Blitzsplit] starts them: in four
   blocks on [pool], or in one on the calling domain. *)
let sweep1 ?pool ~graph tbl lists model ctr ~threshold =
  Live_index.start lists ~n:tbl.Dp_table.n ~index:(Split_loop.scan_applies model ~threshold);
  Blitzsplit.sweep ~pool ~graph ~interrupt:None tbl model ctr ~threshold lists

(* Sweep 1 plain and seeded at [bound], the join form on [tbl] (whose
   pi_fan column it needs) with [graph] (allocated by the caller) and
   the product form on [ptbl], both with their singleton rows filled.
   Every pass rewrites the slots it reads, so a second round is warm. *)
let property_sweeps tbl ptbl lists model graph ctr ~bound =
  sweep1 ~graph tbl lists model ctr ~threshold:Float.infinity;
  sweep1 ~graph:None ptbl lists model ctr ~threshold:Float.infinity;
  sweep1 ~graph tbl lists model ctr ~threshold:bound;
  sweep1 ~graph:None ptbl lists model ctr ~threshold:bound

type cell = {
  topology : Topology.t;
  model : Cost_model.t;
  n : int;
  subsets : int;
  ordered_splits : int;
  iters : int;
  ref_ns : float;
  new_ns : float;
  new_ns_per_iter : float;
  minor_words_per_call : float;
  property_minor_words : float;
  rounds : int;
}

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
  let at_most name a b =
    if b > a then fail "%s: counter %s exceeds the reference's: %d > %d" label name b a
  in
  check "subsets" ctrR.Counters.subsets ctrN.Counters.subsets;
  check "loop_iters (ordered = 2 x unordered)" ctrR.Counters.loop_iters
    (2 * ctrN.Counters.loop_iters);
  at_most "operand_sums" ctrR.Counters.operand_sums ctrN.Counters.operand_sums;
  at_most "dprime_evals" ctrR.Counters.dprime_evals ctrN.Counters.dprime_evals;
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
  let subsets = ctrN.Counters.subsets
  and ordered_splits = ctrR.Counters.loop_iters
  and iters = ctrN.Counters.loop_iters in
  (* Allocation gate input: a warm sweep of the specialized kernel (the
     two sweeps above warmed both tables and the code paths). *)
  let scratch = Counters.create () in
  let minor_words =
    minor_delta (fun () -> sweep Split_loop.find_best_split tblN model scratch)
    -. noop_baseline
  in
  let property_minor_words =
    let catalog, graph = Workload.problem spec in
    let bound = upper_bound model catalog graph in
    let tbl = Dp_table.create ~with_pi_fan:true n and ptbl = Dp_table.create ~with_pi_fan:false n in
    let lists = Live_index.create () in
    let graph = Some graph in
    Split_loop.init_singletons ~graph tbl model catalog;
    Split_loop.init_singletons ~graph:None ptbl model catalog;
    property_sweeps tbl ptbl lists model graph scratch ~bound;
    minor_delta (fun () -> property_sweeps tbl ptbl lists model graph scratch ~bound)
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
  let per_split s = s *. 1e9 /. float_of_int ordered_splits in
  {
    topology = spec.Workload.topology;
    model;
    n;
    subsets;
    ordered_splits;
    iters;
    ref_ns = per_split !ref_best;
    new_ns = per_split !new_best;
    new_ns_per_iter = !new_best *. 1e9 /. float_of_int iters;
    minor_words_per_call = minor_words /. float_of_int subsets;
    property_minor_words;
    rounds;
  }

(* ---- seeded passes ---- *)

type seeded_cell = {
  shape : string;  (* "star, hub last", "star, hub first", "clique", "chain" *)
  s_model : Cost_model.t;
  s_n : int;
  s_iters : int;
  s_ms : float;
  s_words : float;
}

(* The generated star's hub is relation n - 1; renumbering relation i as
   n - 1 - i makes it relation 0, with the same optimum. *)
let hub_first catalog graph =
  let n = Catalog.n catalog in
  let cards = Catalog.cards catalog in
  ( Catalog.of_cards (Array.init n (fun i -> cards.(n - 1 - i))),
    Join_graph.of_edges ~n
      (List.map (fun (i, j, s) -> (n - 1 - i, n - 1 - j, s)) (Join_graph.edges graph)) )

let seeded_shapes =
  [
    ("star, hub last", Topology.Star, false);
    ("star, hub first", Topology.Star, true);
    ("clique", Topology.Clique, false);
    ("chain", Topology.Chain, false);
  ]

let measure_seeded ~rounds ~arena (shape, topology, flip) model n =
  let spec = Workload.spec ~n ~topology ~model ~mean_card:150.0 ~variability:(1.0 /. 3.0) in
  let catalog, graph = Workload.problem spec in
  let catalog, graph = if flip then hub_first catalog graph else (catalog, graph) in
  let threshold = upper_bound model catalog graph in
  let ctr = Counters.create () in
  let pass () = ignore (Blitzsplit.optimize_join ~arena ~counters:ctr ~threshold model catalog graph) in
  pass ();
  Counters.reset ctr;
  let words = minor_delta pass -. noop_baseline in
  let iters = ctr.Counters.loop_iters in
  let best = ref Float.infinity in
  for _ = 1 to rounds do
    let t0 = Bench_config.wall () in
    pass ();
    best := Float.min !best (Bench_config.wall () -. t0)
  done;
  { shape; s_model = model; s_n = n; s_iters = iters; s_ms = !best *. 1e3; s_words = words }

let run_seeded ~fast ~models =
  Bench_config.header "Split: seeded passes (one §6.4 pass at the upper bound)";
  let ns = if fast then [ 10; 12 ] else [ 14; 16 ] in
  let rounds = if fast then 5 else 15 in
  let arena = Arena.create () in
  let cells =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun shape ->
            List.map
              (fun model ->
                let c = measure_seeded ~rounds ~arena shape model n in
                Bench_json.emit ~experiment:"split"
                  [
                    ("record", Json.String "seeded");
                    ("shape", Json.String c.shape);
                    ("model", Json.String model.Cost_model.name);
                    ("n", Json.Int n);
                    ("loop_iters", Json.Int c.s_iters);
                    ("ms_per_pass", Json.Float c.s_ms);
                    ("rounds", Json.Int rounds);
                    ("warm_minor_words", Json.Float c.s_words);
                  ];
                c)
              models)
          seeded_shapes)
      ns
  in
  Blitz_util.Ascii_table.print
    ~header:[| "shape"; "model"; "n"; "loop_iters"; "ms/pass"; "warm minor words" |]
    (Array.of_list
       (List.map
          (fun c ->
            [|
              c.shape;
              c.s_model.Cost_model.name;
              string_of_int c.s_n;
              string_of_int c.s_iters;
              Printf.sprintf "%.3f" c.s_ms;
              Printf.sprintf "%.0f" c.s_words;
            |])
          cells));
  (* A warm pass allocates its result and per-call bookkeeping only:
     the same words at both sizes. *)
  let grows =
    List.filter
      (fun c ->
        List.exists
          (fun d -> d.shape = c.shape && d.s_model == c.s_model && d.s_words <> c.s_words)
          cells)
      cells
  in
  List.iter
    (fun c ->
      Printf.printf "ALLOCATION: seeded %s %s n=%d: %.0f minor words per warm pass\n" c.shape
        c.s_model.Cost_model.name c.s_n c.s_words)
    grows;
  grows = []

(* ---- sweep 1 alone ---- *)

type sweep1_cell = {
  w_shape : string;
  w_model : Cost_model.t;
  w_n : int;
  w_domains : int;  (* 1: one block on the calling domain; else four on a pool *)
  w_subsets : int;
  w_skips : int;
  w_ns_per_subset : float;
  w_words : float;
}

let sweep1_shapes =
  [
    ("chain", Topology.Chain, Cost_model.kdnl);
    ("clique", Topology.Clique, Cost_model.naive);
    ("star, hub last", Topology.Star, Cost_model.sort_merge);
  ]

(* Sweep 1 of a join pass seeded at the upper bound, on a table whose
   singleton and doubleton rows are filled, as [Blitzsplit] runs it on
   [pool] or without: ns per subset of the best of [rounds] warm
   passes, wall-clock at the pass's width. *)
let measure_sweep1 ~rounds ?pool (shape, topology, model) n =
  let spec = Workload.spec ~n ~topology ~model ~mean_card:150.0 ~variability:(1.0 /. 3.0) in
  let catalog, graph = Workload.problem spec in
  let threshold = upper_bound model catalog graph in
  let tbl = Dp_table.create ~with_pi_fan:true n and lists = Live_index.create () in
  let ctr = Counters.create () in
  let graph = Some graph in
  Split_loop.init_singletons ~graph tbl model catalog;
  let pass () = sweep1 ?pool ~graph tbl lists model ctr ~threshold in
  pass ();
  Counters.reset ctr;
  let words = minor_delta pass -. noop_baseline in
  let subsets = ctr.Counters.subsets and skips = ctr.Counters.threshold_skips in
  let best = ref Float.infinity in
  for _ = 1 to rounds do
    let t0 = Bench_config.wall () in
    pass ();
    best := Float.min !best (Bench_config.wall () -. t0)
  done;
  {
    w_shape = shape;
    w_model = model;
    w_n = n;
    w_domains = (match pool with Some p -> Pool.num_domains p | None -> 1);
    w_subsets = subsets;
    w_skips = skips;
    w_ns_per_subset = !best *. 1e9 /. float_of_int subsets;
    w_words = words;
  }

(* The sweep-1 cells at two sizes, on the calling domain and on a
   2-domain pool; true when no warm pass on the calling domain allocated
   and a warm pool pass allocated the same words at both sizes (what
   [Pool.run] and the block dispatch cost, nothing per subset). *)
let run_sweep1 ~fast =
  Bench_config.header "Split: sweep 1 alone (properties and §6.4's skip test, seeded)";
  let ns = if fast then [ 10; 12 ] else [ 16; 18 ] and rounds = if fast then 5 else 15 in
  let cores = Blitz_engine.Engine.recommended_domains () in
  let advisory = cores < 2 in
  if advisory then
    Printf.printf "note: single-core host: the 2-domain cells are ADVISORY, not scaling\n";
  let pool = Pool.create ~num_domains:2 in
  let cells =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        List.concat_map
          (fun n ->
            List.concat_map
              (fun shape ->
                List.map
                  (fun pool ->
                    let c = measure_sweep1 ~rounds ?pool shape n in
                    Bench_json.emit ~experiment:"split"
                      [
                        ("record", Json.String "sweep1");
                        ("shape", Json.String c.w_shape);
                        ("model", Json.String c.w_model.Cost_model.name);
                        ("n", Json.Int n);
                        ("domains", Json.Int c.w_domains);
                        ("subsets", Json.Int c.w_subsets);
                        ("threshold_skips", Json.Int c.w_skips);
                        ("ns_per_subset", Json.Float c.w_ns_per_subset);
                        ("rounds", Json.Int rounds);
                        ("warm_minor_words", Json.Float c.w_words);
                        ("cores_available", Json.Int cores);
                        ("advisory", Json.Bool advisory);
                      ];
                    c)
                  [ None; Some pool ])
              sweep1_shapes)
          ns)
  in
  Blitz_util.Ascii_table.print
    ~header:
      [| "shape"; "model"; "n"; "domains"; "subsets"; "skipped"; "ns/subset"; "warm minor words" |]
    (Array.of_list
       (List.map
          (fun c ->
            [|
              c.w_shape;
              c.w_model.Cost_model.name;
              string_of_int c.w_n;
              string_of_int c.w_domains;
              string_of_int c.w_subsets;
              string_of_int c.w_skips;
              Printf.sprintf "%.2f" c.w_ns_per_subset;
              Printf.sprintf "%.0f" c.w_words;
            |])
          cells));
  let leaks =
    List.filter
      (fun c ->
        if c.w_domains = 1 then c.w_words <> 0.0
        else
          List.exists
            (fun d ->
              d.w_domains = c.w_domains && d.w_shape = c.w_shape && d.w_words <> c.w_words)
            cells)
      cells
  in
  List.iter
    (fun c ->
      Printf.printf
        "ALLOCATION: sweep 1 %s %s n=%d on %d domain(s): %.0f minor words per warm pass\n" c.w_shape
        c.w_model.Cost_model.name c.w_n c.w_domains c.w_words)
    leaks;
  leaks = []

let run () =
  Bench_config.header "Split: ns per ordered split, specialized kernels vs reference";
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
                  ("ordered_splits_per_sweep", Json.Int cell.ordered_splits);
                  ("iters_per_sweep", Json.Int cell.iters);
                  ("rounds", Json.Int cell.rounds);
                  ("reference_ns_per_ordered_split", Json.Float cell.ref_ns);
                  ("specialized_ns_per_ordered_split", Json.Float cell.new_ns);
                  ("specialized_ns_per_iter", Json.Float cell.new_ns_per_iter);
                  ("speedup", Json.Float (cell.ref_ns /. cell.new_ns));
                  ("minor_words_per_call", Json.Float cell.minor_words_per_call);
                  ("property_sweep_minor_words", Json.Float cell.property_minor_words);
                  ("bit_identical", Json.Bool true);
                ])
            models)
        topologies)
    ns;
  let cells = List.rev !cells in
  let header =
    [|
      "topology";
      "model";
      "kernel";
      "n";
      "ref ns/split";
      "spec ns/split";
      "speedup";
      "spec ns/it";
      "mw/call";
    |]
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
          Printf.sprintf "%.2f" c.new_ns_per_iter;
          Printf.sprintf "%.3f" c.minor_words_per_call;
        |])
      cells
  in
  Blitz_util.Ascii_table.print ~header (Array.of_list rows);
  Printf.printf
    "\nbit-identity: every cell matched the reference (costs, best_lhs, plans; loop_iters \
     exactly half, operand sums and kappa'' evaluations no more, other counters equal)\n";
  (* Zero-allocation gate: every paper-model cell, not just the gated
     one — the three kernels have different loop bodies and each must
     stay allocation-free. *)
  let leaks =
    List.filter (fun c -> c.minor_words_per_call <> 0.0 || c.property_minor_words <> 0.0) cells
  in
  let seeded_flat = run_seeded ~fast ~models in
  let sweep1_flat = run_sweep1 ~fast in
  if leaks <> [] || not seeded_flat || not sweep1_flat then begin
    List.iter
      (fun c ->
        Printf.printf
          "ALLOCATION: %s %s n=%d: %.3f minor words/call, %.0f per round of sweep-1 passes\n"
          (Topology.name c.topology) c.model.Cost_model.name c.n c.minor_words_per_call
          c.property_minor_words)
      leaks;
    failwith "split: zero-allocation gate failed"
  end;
  Printf.printf
    "zero-allocation gate: PASS (Gc.minor_words delta = 0 across warm kernel sweeps and warm \
     sweep-1 passes, plain and seeded; warm seeded passes and warm sweep-1 passes on a pool \
     allocate the same words at both sizes)\n";
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
      ("speedup_per_iter", Json.Float (gated.ref_ns /. gated.new_ns_per_iter));
      ("fast", Json.Bool fast);
    ];
  if speedup < gate then
    failwith
      (Printf.sprintf "split: speedup gate failed on clique/k0/n=%d: %.2fx < %.2fx" gate_n
         speedup gate)
  else
    Printf.printf
      "speedup gate: PASS (%.2fx >= %.2fx on clique/k0/n=%d; %.2fx per own iteration, not gated)\n"
      speedup gate gate_n
      (gated.ref_ns /. gated.new_ns_per_iter);
  Printf.printf "all split gates passed\n"
