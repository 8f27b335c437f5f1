(* Experiment "throughput": the engine-session claim.

   The paper's pitch is that blitzsplit's constants are tiny; the
   engine's pitch is that a fresh O(2^n) table allocation per query
   (plus a counters record) taxes exactly the small, fast queries those
   constants win on.  This experiment measures repeated-query
   throughput (queries/second) two ways over the same batch:

     fresh    a new Registry ctx — and therefore a new DP table —
              per query (the pre-engine serving shape);
     session  one engine session: ctx built once ([Engine.ctx]), each
              query dispatched through the registry against the
              session's arena-pooled table and counters — the loop
              [Engine.optimize_many] runs, minus materializing the
              detached outcome list a measurement loop discards.

   Every query's cost is verified identical between the fresh path and
   [Engine.optimize_many] before timing (the bit-identical session
   claim; fails loudly).
   Timing is wall-clock with adaptive repetition.  Records go to the
   shared --json collector: `bench throughput --json BENCH_engine.json`
   refreshes the repository's recorded numbers.  Single-core
   (num_domains = 1) — honest allocator-vs-arena numbers, no
   parallelism in either path. *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Registry = Blitz_engine.Registry
module Engine = Blitz_engine.Engine
module Json = Blitz_util.Json

(* A batch that looks like repeated-query traffic: topologies, mean
   cardinalities and variabilities rotate query to query, plus a pure
   Cartesian-product query (no graph) every sixth slot. *)
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

let run () =
  Bench_config.header "Engine throughput: arena-pooled session vs fresh allocation per query";
  let ns = if Bench_config.fast then [ 6; 8; 10 ] else [ 6; 8; 10; 12 ] in
  let size = 24 in
  let min_total = if Bench_config.fast then 0.05 else 0.5 in
  let min_runs = 2 in
  let model = Cost_model.kdnl in
  let cores = Blitz_engine.Engine.recommended_domains () in
  Printf.printf "batch of %d queries per n (mixed topology/cardinality, every 6th a pure product)\n"
    size;
  Printf.printf "single-core in both paths; host has %d core(s) available\n" cores;
  let rows =
    List.map
      (fun n ->
        let problems = batch ~n ~size in
        let fresh_costs =
          List.map (fun p -> (Registry.optimize (Registry.ctx model) p).Registry.cost) problems
        in
        Engine.with_session ~model ~num_domains:1 (fun session ->
            (* Bit-identical check before timing: the session path must
               reproduce the fresh path's cost on every query. *)
            let session_outcomes = Engine.optimize_many session (List.to_seq problems) in
            List.iteri
              (fun i (fresh, o) ->
                if fresh <> o.Registry.cost then
                  failwith
                    (Printf.sprintf
                       "session cost diverged at n=%d query %d: %.17g vs %.17g" n i
                       o.Registry.cost fresh))
              (List.combine fresh_costs session_outcomes);
            let entry = Registry.find_exn "exact" in
            let ctr = Engine.counters session in
            let sctx = Engine.ctx ~counters:ctr ~n session in
            (* The two paths differ by fractions of a microsecond per
               query, well inside this host's CPU-frequency drift over a
               single measurement, hence the interleaved best rounds. *)
            let fresh_s, session_s =
              Bench_config.interleaved ~rounds:7 ~min_total ~min_runs
                (fun () ->
                  List.iter
                    (fun p -> ignore (Registry.optimize (Registry.ctx model) p))
                    problems)
                (fun () ->
                  List.iter
                    (fun p ->
                      Blitz_core.Counters.reset ctr;
                      ignore (entry.Registry.optimize sctx p))
                    problems)
            in
            let qps s = float_of_int size /. s in
            Bench_json.emit ~experiment:"throughput"
              [
                ("n", Json.Int n);
                ("batch", Json.Int size);
                ("model", Json.String "kdnl");
                ("cores_used", Json.Int 1);
                ("cores_available", Json.Int cores);
                ("fresh_qps", Json.Float (qps fresh_s));
                ("session_qps", Json.Float (qps session_s));
                ("speedup", Json.Float (fresh_s /. session_s));
              ];
            [|
              string_of_int n;
              Printf.sprintf "%.0f" (qps fresh_s);
              Printf.sprintf "%.0f" (qps session_s);
              Printf.sprintf "%.2fx" (fresh_s /. session_s);
            |]))
      ns
  in
  Blitz_util.Ascii_table.print
    ~header:[| "n"; "fresh (q/s)"; "session (q/s)"; "session speedup" |]
    (Array.of_list rows);
  Printf.printf "\nsession costs verified bit-identical to fresh on every query (would fail loudly)\n"
