(* Experiment "obs": the observability overhead gate.

   The instrumentation contract (lib/obs) is that a disabled probe is
   one [Atomic.get] branch and an enabled metrics probe is a handful of
   atomic adds — nothing a query optimizer notices.  This experiment
   holds that contract to numbers: it runs the same mixed batch through
   one engine session with metrics off and with metrics on, interleaved
   best-of-rounds (the exp_throughput protocol, so CPU-frequency drift
   penalizes both configurations alike), and reports the relative
   slowdown of the enabled path.

   The gate: at every n, enabled-metrics overhead must stay under 2%
   relative OR under 500 ns per query absolute.  The absolute arm
   exists because the instrumentation cost is fixed while the split
   kernels keep getting faster: at n = 6 a whole query is ~3.5 us, so
   2% is ~70 ns — less than the four histogram observations on the
   per-query path cost even in principle (each is a bucket search plus
   three fenced atomic RMWs).  A relative-only gate there measures the
   optimizer's speed, not the instrumentation's weight; the absolute
   ceiling still trips on anything a query would notice (a mutex, a
   per-subset probe, tracing on the metrics path).  `bench obs --json
   BENCH_obs.json` refreshes the repository's recorded numbers; the
   committed BENCH_obs.json is the acceptance artifact.  Plans are additionally checked bit-identical between the
   two configurations before timing (instrumentation must never steer
   the search).  Tracing stays off in both paths — spans read the clock
   and allocate, and the hot seams only carry per-pass/per-rank spans
   precisely so traced runs stay cheap; the metrics gate is the one the
   per-subset seams must pass. *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Registry = Blitz_engine.Registry
module Engine = Blitz_engine.Engine
module Metrics = Blitz_obs.Metrics
module Json = Blitz_util.Json

(* Same traffic shape as exp_throughput: rotating topologies and
   cardinalities, every sixth query a pure Cartesian product. *)
let batch ~n ~size =
  let topologies = [| Topology.Chain; Topology.Star; Topology.Clique; Topology.Cycle_plus 1 |] in
  let mean_cards = [| 100.0; 1000.0; 10000.0 |] in
  let variabilities = [| 0.0; 0.5 |] in
  List.init size (fun i ->
      if i mod 6 = 5 then
        Registry.problem (Blitz_catalog.Catalog.uniform ~n ~card:100.0)
      else
        let spec =
          Workload.spec ~n
            ~topology:topologies.(i mod 4)
            ~model:Cost_model.kdnl
            ~mean_card:mean_cards.(i mod 3)
            ~variability:variabilities.(i mod 2)
        in
        let catalog, graph = Workload.problem spec in
        Registry.problem ~graph catalog)

let gate_pct = 2.0
let gate_abs_ns = 500.0

let run () =
  Bench_config.header "Observability overhead: metrics enabled vs disabled, same session";
  let ns = if Bench_config.fast then [ 6; 8; 10 ] else [ 6; 7; 8; 9; 10; 11; 12 ] in
  let size = 24 in
  let min_total = if Bench_config.fast then 0.05 else 0.4 in
  let min_runs = 2 in
  let model = Cost_model.kdnl in
  Printf.printf
    "batch of %d queries per n (mixed topology/cardinality, every 6th a pure product)\n" size;
  Printf.printf
    "gate: metrics-on overhead < %.0f%% (or < %.0f ns/query absolute) at every n; tracing off in both paths\n\n"
    gate_pct gate_abs_ns;
  let was_enabled = Metrics.enabled () in
  let all_pass = ref true in
  let rows =
    List.map
      (fun n ->
        let problems = batch ~n ~size in
        Engine.with_session ~model (fun session ->
            let entry = Registry.find_exn "exact" in
            let ctr = Engine.counters session in
            let sctx = Engine.ctx ~counters:ctr ~n session in
            let run_batch () =
              List.iter
                (fun p ->
                  Blitz_core.Counters.reset ctr;
                  ignore (entry.Registry.optimize sctx p))
                problems
            in
            let costs_with enabled =
              Metrics.set_enabled enabled;
              List.map
                (fun p ->
                  Blitz_core.Counters.reset ctr;
                  (entry.Registry.optimize sctx p).Registry.cost)
                problems
            in
            (* Bit-identity before timing: metrics must not steer the search. *)
            List.iteri
              (fun i (off, on) ->
                if off <> on then
                  failwith
                    (Printf.sprintf "metrics changed plan cost at n=%d query %d: %.17g vs %.17g"
                       n i off on))
              (List.combine (costs_with false) (costs_with true));
            let off_s, on_s =
              Bench_config.interleaved ~rounds:7 ~min_total ~min_runs
                (fun () ->
                  Metrics.set_enabled false;
                  run_batch ())
                (fun () ->
                  Metrics.set_enabled true;
                  run_batch ())
            in
            Metrics.set_enabled false;
            let qps s = float_of_int size /. s in
            let overhead_pct = 100.0 *. ((on_s /. off_s) -. 1.0) in
            let overhead_ns = (on_s -. off_s) *. 1e9 /. float_of_int size in
            let pass = overhead_pct < gate_pct || overhead_ns < gate_abs_ns in
            if not pass then all_pass := false;
            Bench_json.emit ~experiment:"obs"
              [
                ("n", Json.Int n);
                ("batch", Json.Int size);
                ("model", Json.String "kdnl");
                ("optimizer", Json.String "exact");
                ("off_qps", Json.Float (qps off_s));
                ("on_qps", Json.Float (qps on_s));
                ("overhead_pct", Json.Float overhead_pct);
                ("overhead_ns_per_query", Json.Float overhead_ns);
                ("gate_pct", Json.Float gate_pct);
                ("gate_abs_ns", Json.Float gate_abs_ns);
                ("pass", Json.Bool pass);
              ];
            [|
              string_of_int n;
              Printf.sprintf "%.0f" (qps off_s);
              Printf.sprintf "%.0f" (qps on_s);
              Printf.sprintf "%+.2f%%" overhead_pct;
              Printf.sprintf "%+.0f" overhead_ns;
              (if pass then "pass" else "FAIL");
            |]))
      ns
  in
  Metrics.set_enabled was_enabled;
  Blitz_util.Ascii_table.print
    ~header:[| "n"; "metrics off (q/s)"; "metrics on (q/s)"; "overhead"; "ns/query"; "gate" |]
    (Array.of_list rows);
  Printf.printf "\nplan costs verified bit-identical with metrics on vs off (would fail loudly)\n";
  if !all_pass then Printf.printf "gate: PASS at every n\n"
  else begin
    Printf.printf "gate: FAIL — metrics overhead exceeded %.0f%% and %.0f ns/query\n" gate_pct
      gate_abs_ns;
    exit 1
  end
