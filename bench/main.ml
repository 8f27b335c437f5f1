(* Benchmark harness entry point.

   Usage:  dune exec bench/main.exe [--] [--json FILE] [experiment ...]
   Experiments: table1 fig2 fig4 fig5 fig6 counts compare ablation
   models parallel split dpconv throughput obs cache robust serve
   all (default: all).  [--json FILE] arms the
   shared Bench_json collector: experiments that emit records get them
   written to FILE as one blitz-bench/1 document at exit.  Environment:
   BLITZ_BENCH_N, BLITZ_BENCH_FAST (see bench_config.ml).
   EXPERIMENTS.md records paper-vs-measured for each experiment. *)

let experiments =
  [
    ("table1", Exp_table1.run);
    ("fig2", Exp_fig2.run);
    ("fig4", Exp_fig4.run);
    ("fig5", Exp_fig5.run);
    ("fig6", Exp_fig6.run);
    ("counts", Exp_counts.run);
    ("compare", Exp_compare.run);
    ("ablation", Exp_ablation.run);
    ("models", Exp_models.run);
    ("parallel", Exp_parallel.run);
    ("split", Exp_split.run);
    ("dpconv", Exp_dpconv.run);
    ("throughput", Exp_throughput.run);
    ("obs", Exp_obs.run);
    ("cache", Exp_cache.run);
    ("robust", Exp_robust.run);
    ("serve", Exp_serve.run);
  ]

let usage () =
  Printf.eprintf "usage: bench [--json FILE] [experiment ...]\navailable: %s all\n"
    (String.concat " " (List.map fst experiments));
  exit 2

let () =
  let args =
    Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--")
  in
  let rec parse_flags = function
    | "--json" :: path :: rest ->
      Bench_json.set_output path;
      parse_flags rest
    | [ "--json" ] -> usage ()
    | arg :: rest -> arg :: parse_flags rest
    | [] -> []
  in
  let args = parse_flags args in
  let selected =
    match args with
    | [] | [ "all" ] -> List.map fst experiments
    | names ->
      List.iter (fun name -> if not (List.mem_assoc name experiments) then usage ()) names;
      names
  in
  Printf.printf "blitz bench: n = %d%s\n" Bench_config.n
    (if Bench_config.fast then " (fast mode)" else "");
  List.iter (fun name -> (List.assoc name experiments) ()) selected;
  Bench_json.write ()
