(* Experiment "parallel": rank-parallel blitzsplit speedup curve.

   Times one blitzsplit pass on the calling domain (the sequential
   column) and the same call with [~pool] on pools of 1/2/4/8 domains
   over n = 12..20 (Cartesian products, kappa_0, equal cardinalities —
   the same pure-3^n kernel as fig2), so the points differ only in the
   pool, verifying on every point that the cost is bit-identical to the
   sequential one.
   Timing is WALL clock (Bench_config.wall, on CLOCK_MONOTONIC):
   Timer.now is CPU time, which sums over domains and would hide any
   speedup.  Each point is the best of three rounds (one in fast mode),
   each the mean of at least two calls, with every point taking a turn
   in every round and the order changing from round to round.

   Results go to the shared --json collector; `bench parallel --json
   BENCH_parallel.json` seeds the repository's recorded perf trajectory.
   The sweep stops early once a sequential point exceeds the per-point
   budget (logged — no silent truncation), so hosts of any speed get a
   complete, honest file. *)

module Catalog = Blitz_catalog.Catalog
module Cost_model = Blitz_cost.Cost_model
module Blitzsplit = Blitz_core.Blitzsplit
module Pool = Blitz_parallel.Pool
module Json = Blitz_util.Json

let domain_axis = [ 1; 2; 4; 8 ]

let run () =
  Bench_config.header "Parallel: rank-parallel blitzsplit speedup (kappa_0, equal cardinalities)";
  let lo, hi = if Bench_config.fast then (10, 13) else (12, 20) in
  let budget_per_point = if Bench_config.fast then 1.0 else 30.0 in
  let min_total = if Bench_config.fast then 0.02 else 0.2 in
  let rounds = if Bench_config.fast then 1 else 3 in
  let cores = Blitz_engine.Engine.recommended_domains () in
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
    (* Every point, one domain included, runs the pass on a pool of that
       width: the 1-domain point is what the pool's chunks and barriers
       cost without parallelism. *)
    let pools = List.map (fun d -> (d, Pool.create ~num_domains:d)) domain_axis in
    let pass ?pool () = Blitzsplit.best_cost (Blitzsplit.optimize_product ?pool model catalog) in
    (* An untimed sequential pass, after the pools have spawned: the cost
       every point must reproduce. *)
    let seq_cost = pass () in
    let point (d, pool) () =
      let cost = pass ?pool () in
      if cost <> seq_cost then
        failwith
          (Printf.sprintf "parallel cost diverged at n=%d domains=%d: %.17g vs %.17g" !n d cost
             seq_cost)
    in
    let points =
      Array.of_list ((0, None) :: List.map (fun (d, pool) -> (d, Some pool)) pools)
    in
    let k = Array.length points in
    (* Best of [rounds], every point taking its turn in each round, so
       drift on a shared host hits the sequential point and each width
       alike.  Round r starts at point r and odd rounds run backwards, so
       which point runs first, and which one runs before the sequential
       point, changes from round to round. *)
    let best = Array.make k Float.infinity in
    Fun.protect
      ~finally:(fun () -> List.iter (fun (_, pool) -> Pool.shutdown pool) pools)
      (fun () ->
        for r = 0 to rounds - 1 do
          for j = 0 to k - 1 do
            let i = (r + (if r land 1 = 0 then j else k - j)) mod k in
            best.(i) <-
              Float.min best.(i) (Bench_config.time_wall ~min_total ~min_runs:2 (point points.(i)))
          done
        done);
    let seq_s = best.(0) in
    let per_domain = List.mapi (fun i d -> (d, best.(i + 1))) domain_axis in
    rows := (!n, seq_s, per_domain) :: !rows;
    Bench_json.emit ~experiment:"parallel"
      ([
         ("n", Json.Int !n);
         ("workload", Json.String "product-uniform-100");
         ("model", Json.String "k0");
         ("cores_available", Json.Int cores);
         ("advisory", Json.Bool advisory);
         ("auto_fallback_below_n", Json.Int Blitz_engine.Engine.default_crossover_n);
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
      (* The 1-domain point times the pool's overhead, not parallelism. *)
      let best =
        List.fold_left
          (fun acc (d, s) -> if d > 1 then Float.max acc (seq_s /. s) else acc)
          0.0 per_domain
      in
      if best < 1.1 then
        failwith
          (Printf.sprintf "parallel: no speedup at n=%d on a %d-core host (best %.2fx)" n cores
             best)
      else Printf.printf "speedup gate: best %.2fx at n=%d\n" best n
