(* Experiment "parallel": rank-parallel blitzsplit speedup curve.

   Measures the sequential optimizer and Parallel_blitzsplit at 1/2/4/8
   domains over n = 12..20 (Cartesian products, kappa_0, equal
   cardinalities — the same pure-3^n kernel as fig2), verifying on every
   point that the parallel cost is bit-identical to the sequential one.
   Timing is WALL clock (Bench_config.wall, on CLOCK_MONOTONIC):
   Timer.now is CPU time, which sums over domains and would hide any
   speedup.

   Results go to the shared --json collector; `bench parallel --json
   BENCH_parallel.json` seeds the repository's recorded perf trajectory.
   The sweep stops early once a sequential point exceeds the per-point
   budget (logged — no silent truncation), so hosts of any speed get a
   complete, honest file. *)

module Catalog = Blitz_catalog.Catalog
module Cost_model = Blitz_cost.Cost_model
module Blitzsplit = Blitz_core.Blitzsplit
module Parallel_blitzsplit = Blitz_parallel.Parallel_blitzsplit
module Pool = Blitz_parallel.Pool
module Registry = Blitz_engine.Registry
module Json = Blitz_util.Json

let domain_axis = [ 1; 2; 4; 8 ]

let run () =
  Bench_config.header "Parallel: rank-parallel blitzsplit speedup (kappa_0, equal cardinalities)";
  let lo, hi = if Bench_config.fast then (10, 13) else (12, 20) in
  let budget_per_point = if Bench_config.fast then 1.0 else 30.0 in
  let min_total = if Bench_config.fast then 0.02 else 0.2 in
  let cores = Parallel_blitzsplit.recommended_domains () in
  (* On a single-core host every multi-domain point measures scheduling
     overhead, not parallelism: the numbers are still recorded, stamped
     advisory, and the speedup gate is skipped. *)
  let advisory = cores < 2 in
  Printf.printf "host: %d core(s) recommended by the runtime; domain axis %s\n" cores
    (String.concat "/" (List.map string_of_int domain_axis));
  if advisory then
    Printf.printf "note: single-core host — results are ADVISORY, speedup gate skipped\n"
  else if cores < List.fold_left max 1 domain_axis then
    Printf.printf
      "note: axis exceeds available cores; oversubscribed points measure scheduling overhead, \
       not speedup\n";
  let rows = ref [] in
  let stop = ref false in
  let n = ref lo in
  while (not !stop) && !n <= hi do
    let catalog = Catalog.uniform ~n:!n ~card:100.0 in
    let model = Cost_model.naive in
    let seq_result = ref None in
    let seq_s =
      Bench_config.time_wall ~min_total ~min_runs:2 (fun () ->
          seq_result := Some (Bench_opt.run model catalog None))
    in
    let seq_cost = (Option.get !seq_result).Registry.cost in
    let per_domain =
      List.map
        (fun d ->
          if d = 1 then (d, seq_s)  (* num_domains = 1 is the sequential path by construction *)
          else
            Pool.with_pool ~num_domains:d (fun pool ->
                (* [min_parallel_n:2] forces the parallel path: the point
                   of this sweep is to MEASURE the crossover, so the
                   production auto-fallback (below
                   [default_crossover_n]) must not mask it. *)
                let par_result = ref None in
                let s =
                  Bench_config.time_wall ~min_total ~min_runs:2 (fun () ->
                      par_result :=
                        Some
                          (Parallel_blitzsplit.optimize_product ~pool ~num_domains:d
                             ~min_parallel_n:2 model catalog))
                in
                let par_cost = Blitzsplit.best_cost (Option.get !par_result) in
                if par_cost <> seq_cost then
                  failwith
                    (Printf.sprintf
                       "parallel cost diverged at n=%d domains=%d: %.17g vs %.17g" !n d par_cost
                       seq_cost);
                (d, s)))
        domain_axis
    in
    rows := (!n, seq_s, per_domain) :: !rows;
    Bench_json.emit ~experiment:"parallel"
      ([
         ("n", Json.Int !n);
         ("workload", Json.String "product-uniform-100");
         ("model", Json.String "k0");
         ("cores_available", Json.Int cores);
         ("advisory", Json.Bool advisory);
         ("auto_fallback_below_n", Json.Int Parallel_blitzsplit.default_crossover_n);
         ("sequential_s", Json.Float seq_s);
       ]
      @ List.map
          (fun (d, s) -> (Printf.sprintf "domains_%d_s" d, Json.Float s))
          per_domain
      @ List.map
          (fun (d, s) -> (Printf.sprintf "speedup_%d" d, Json.Float (seq_s /. s)))
          per_domain);
    if seq_s > budget_per_point then begin
      Printf.printf "stopping after n=%d: sequential point took %.1fs > %.1fs budget\n" !n seq_s
        budget_per_point;
      stop := true
    end;
    incr n
  done;
  let header =
    Array.of_list
      ([ "n"; "sequential (s)" ]
      @ List.concat_map
          (fun d -> [ Printf.sprintf "%dd (s)" d; Printf.sprintf "%dd speedup" d ])
          domain_axis)
  in
  let table_rows =
    List.rev_map
      (fun (n, seq_s, per_domain) ->
        Array.of_list
          ([ string_of_int n; Bench_config.seconds seq_s ]
          @ List.concat_map
              (fun (_, s) -> [ Bench_config.seconds s; Printf.sprintf "%.2fx" (seq_s /. s) ])
              per_domain))
      !rows
  in
  Blitz_util.Ascii_table.print ~header (Array.of_list table_rows);
  Printf.printf
    "\nparallel cost verified bit-identical to sequential at every point (would fail loudly)\n";
  (* Speedup gate: on a real multi-core host the largest completed point
     must show an actual win somewhere on the domain axis.  Skipped when
     advisory (cores < 2) or in fast mode (points too small to beat the
     rank barriers — that regime is exactly why the auto-fallback
     exists). *)
  if advisory then Printf.printf "speedup gate: SKIPPED (advisory single-core run)\n"
  else if Bench_config.fast then Printf.printf "speedup gate: skipped (fast mode)\n"
  else
    match !rows with
    | [] -> ()
    | (n, seq_s, per_domain) :: _ ->
      let best = List.fold_left (fun acc (_, s) -> Float.max acc (seq_s /. s)) 0.0 per_domain in
      if best < 1.1 then
        failwith
          (Printf.sprintf "parallel: no speedup at n=%d on a %d-core host (best %.2fx)" n cores
             best)
      else Printf.printf "speedup gate: best %.2fx at n=%d\n" best n
