(* blitz — command-line front end for the blitzsplit join-order optimizer.

   Subcommands:
     optimize   optimize a query (from a SQL script or workload flags)
     compare    run every optimizer in the repository on one query
     workload   emit an appendix-style benchmark workload as a SQL script
     regret     measure plan-cost regret under cardinality-estimate error

   Examples:
     blitz optimize --sql query.sql --model kdnl --annotate
     blitz optimize -n 12 --topology star --mean-card 1000 --dump-table
     blitz optimize --sql query.sql --execute --seed 42
     blitz compare -n 10 --topology clique --model kdnl
     blitz workload -n 15 --topology cycle+3 --mean-card 100 --variability 0.33 *)

open Cmdliner
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Counters = Blitz_core.Counters
module Dp_table = Blitz_core.Dp_table
module Workload = Blitz_workload.Workload
module Binder = Blitz_sql.Binder
module B = Blitz_baselines
module Rng = Blitz_util.Rng
module Guard = Blitz_guard.Guard
module Budget = Blitz_guard.Budget
module Degrade = Blitz_guard.Degrade
module Sanitize = Blitz_guard.Sanitize
module Chaos = Blitz_guard.Chaos
module Noise = Blitz_robust.Noise
module Regret = Blitz_robust.Regret
module Registry = Blitz_engine.Registry
module Engine = Blitz_engine.Engine
module Plan_cache = Blitz_cache.Plan_cache
module Obs = Blitz_obs.Obs

(* ---- shared converters ---- *)

let model_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Cost_model.of_string s) in
  let print ppf (m : Cost_model.t) = Format.pp_print_string ppf m.Cost_model.name in
  Arg.conv (parse, print)

let topology_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Topology.of_string s) in
  let print ppf t = Format.pp_print_string ppf (Topology.name t) in
  Arg.conv (parse, print)

let model_arg =
  Arg.(
    value
    & opt model_conv Cost_model.kdnl
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Cost model: k0, ksm, kdnl, or min:A,B.")

(* ---- problem acquisition: SQL script or workload flags ---- *)

let sql_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sql" ] ~docv:"FILE" ~doc:"SQL script to optimize ('-' reads standard input).")

let n_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n" ] ~docv:"N" ~doc:"Number of relations for a generated workload.")

let topology_arg =
  Arg.(
    value
    & opt topology_conv Topology.Chain
    & info [ "t"; "topology" ] ~docv:"TOPOLOGY"
        ~doc:"Join-graph topology for a generated workload: chain, cycle+K, star, clique, grid:RxC.")

let mean_card_arg =
  Arg.(
    value
    & opt float 100.0
    & info [ "mean-card" ] ~docv:"MU" ~doc:"Geometric-mean base-relation cardinality.")

let variability_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "variability" ] ~docv:"V" ~doc:"Cardinality variability in [0, 1].")

let read_file path =
  if path = "-" then In_channel.input_all stdin
  else In_channel.with_open_text path In_channel.input_all

type problem = {
  catalog : Catalog.t;
  graph : Join_graph.t;
  label : string;
  required_order : int option;  (** From the SQL ORDER BY, when present. *)
}

(* The query to optimize.  [`Usage] is a command line that names no
   single query source, cmdliner's usage error (exit 124); [`Workload]
   is a source that holds no query the optimizer can take (exit 1). *)
let acquire_problem sql n topology mean_card variability model =
  match (sql, n) with
  | Some _, Some _ -> Error (`Usage "--sql and -n are mutually exclusive")
  | Some path, None -> (
    match Binder.parse_and_bind (read_file path) with
    | Error e -> Error (`Workload e)
    | Ok [] -> Error (`Workload "the script contains no SELECT statement")
    | Ok (q :: rest) ->
      if rest <> [] then
        Printf.eprintf "note: script has %d queries; optimizing the first\n" (List.length rest + 1);
      Ok
        {
          catalog = q.Binder.catalog;
          graph = q.Binder.graph;
          label = path;
          required_order = q.Binder.required_order;
        })
  | None, Some n -> (
    match
      Workload.spec ~n ~topology ~model ~mean_card ~variability
    with
    | spec ->
      let catalog, graph = Workload.problem spec in
      Ok { catalog; graph; label = Workload.describe spec; required_order = None }
    | exception Invalid_argument msg -> Error (`Workload msg))
  | None, None -> Error (`Usage "provide either --sql FILE or -n N (see --help)")

let problem_term =
  let combine sql n topology mean_card variability model =
    match acquire_problem sql n topology mean_card variability model with
    | Ok p -> `Ok p
    | Error (`Usage msg) -> `Error (false, msg)
    | Error (`Workload msg) ->
      Printf.eprintf "blitz: %s\n" msg;
      exit 1
  in
  Term.(
    ret
      (const combine $ sql_arg $ n_arg $ topology_arg $ mean_card_arg $ variability_arg
     $ model_arg))

(* ---- observability surface (shared by optimize and explain) ---- *)

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable the metrics registry for this run and dump it afterwards: bare --metrics \
           prints the Prometheus text exposition to standard output; --metrics=FILE writes it \
           to FILE (JSON instead of Prometheus text when FILE ends in .json).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable structured tracing for this run and write the spans to FILE as a Chrome-trace \
           JSON array (load it in chrome://tracing or ui.perfetto.dev).")

(* Arm the switches before the run; everything the optimizer records
   between the two calls is what gets exported. *)
let obs_arm ~metrics ~trace =
  if metrics <> None then Obs.Metrics.set_enabled true;
  if trace <> None then Obs.Trace.set_enabled true

let obs_report ~metrics ~trace =
  (match trace with
  | None -> ()
  | Some path ->
    Obs.Trace.write_chrome path;
    Printf.printf "trace:      wrote %s (%d span(s))\n" path (List.length (Obs.Trace.events ())));
  match metrics with
  | None -> ()
  | Some "-" ->
    print_newline ();
    print_string (Obs.Metrics.to_prometheus ())
  | Some path ->
    let contents =
      if Filename.check_suffix path ".json" then
        Blitz_util.Json.to_string ~indent:true (Obs.Metrics.to_json ()) ^ "\n"
      else Obs.Metrics.to_prometheus ()
    in
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
    Printf.printf "metrics:    wrote %s\n" path

(* ---- plan-cache surface (shared by optimize and explain) ---- *)

let cache_arg =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Enable the canonicalized plan cache for this run: structurally identical queries \
           (up to relation renaming) are answered from the cache instead of re-running the \
           DP.  Combine with --repeat to see hits within one invocation.")

let cache_mb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-mb" ] ~docv:"MB"
        ~doc:"Plan-cache memory budget in mebibytes (default 64; implies --cache).")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Disable the plan cache (overrides --cache and --cache-mb).")

let cache_term =
  let combine cache cache_mb no_cache =
    if no_cache then `Ok None
    else if not (cache || cache_mb <> None) then `Ok None
    else
      match
        Plan_cache.create ?max_bytes:(Option.map (fun mb -> mb * 1024 * 1024) cache_mb) ()
      with
      | c -> `Ok (Some c)
      | exception Invalid_argument msg -> `Error (false, msg)
  in
  Term.(ret (const combine $ cache_arg $ cache_mb_arg $ no_cache_arg))

let repeat_arg =
  Arg.(
    value
    & opt int 1
    & info [ "repeat" ] ~docv:"K"
        ~doc:
          "Optimize the query K times through one session (with --cache, every run after the \
           first is a cache hit).")

let print_cache_line cache =
  match cache with
  | None -> ()
  | Some c ->
    let s = Plan_cache.stats c in
    Printf.printf "cache:      %d hit(s) (%d rebased), %d miss(es), %d insertion(s)\n"
      s.Plan_cache.hits s.Plan_cache.rebases s.Plan_cache.misses s.Plan_cache.insertions

(* Whether [entry]'s DP ran rank-parallel in [session]: the entry runs
   on a pool, and the session hands one out at this size. *)
let ran_on_pool session (entry : Registry.entry) ~n =
  entry.Registry.caps.Registry.parallelizable && Option.is_some (Engine.pool session ~n)

(* The session width --num-domains asks for: 0 is the runtime's
   recommended count. *)
let session_width = function
  | 0 -> Engine.recommended_domains ()
  | d when d < 0 || d > 128 ->
    Printf.eprintf "blitz: --num-domains %d outside [0, 128]\n" d;
    exit 1
  | d -> d

let print_domains d = Printf.printf "domains:    %d (rank-parallel DP)\n" d

(* --repeat: run the query [repeat] times through one session and keep
   the last answer.  With --cache every run after the first is answered
   from the cache (a run under --threshold bypasses it). *)
let repeated repeat run =
  let last = ref (run ()) in
  for _ = 2 to repeat do
    last := run ()
  done;
  !last

(* --threshold and --growth feed Section 6.4's driver, which takes only
   a positive finite threshold and a growth above 1 (NaN fails both). *)
let check_threshold = function
  | Some t when not (t > 0.0 && Float.is_finite t) ->
    Printf.eprintf "blitz: --threshold %g must be positive and finite\n" t;
    exit 1
  | _ -> ()

let check_growth g =
  if not (g > 1.0) then begin
    Printf.eprintf "blitz: --growth %g must exceed 1\n" g;
    exit 1
  end

(* The guarded driver seeds its exact tier from its own upper bound and
   runs one pass at it, so a caller's threshold or growth would be
   dropped without a word: refuse them instead. *)
let refuse_on_guarded_path ~threshold ~growth =
  let refuse option =
    Printf.eprintf
      "blitz: %s does not apply to the guarded driver (--degrade, --deadline-ms, \
       --max-table-mb, --scramble-catalog), which seeds its own bound\n"
      option;
    exit 1
  in
  if Option.is_some threshold then refuse "--threshold";
  if Option.is_some growth then refuse "--growth"

(* ---- optimize ---- *)

(* [blitz optimize]'s status when the search finds no plan of finite
   cost (documented in its EXIT STATUS section). *)
let no_finite_plan_exit = 2

let optimize_cmd =
  let threshold_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"COST"
          ~doc:"Plan-cost threshold (Section 6.4), positive and finite: the exact optimizer \
                prunes at it and re-optimizes with a raised threshold on failure; other \
                optimizers ignore it.  Rejected on the guarded paths (--degrade, \
                --deadline-ms, --max-table-mb, --scramble-catalog), whose exact tier seeds its \
                own bound.")
  in
  let growth_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "growth" ] ~docv:"FACTOR"
          ~doc:"Threshold growth factor between passes (10000 when not given); must exceed 1.  \
                Rejected on the guarded paths, as --threshold is.")
  in
  let dump_table_arg =
    Arg.(value & flag & info [ "dump-table" ] ~doc:"Print the full DP table (small queries only).")
  in
  let annotate_arg =
    Arg.(
      value & flag
      & info [ "annotate" ] ~doc:"Attach the cheapest join algorithm to each node (Section 6.5).")
  in
  let execute_arg =
    Arg.(
      value & flag
      & info [ "execute" ]
          ~doc:"Generate synthetic data realizing the statistics, run the plan, and compare \
                estimated vs. actual cardinalities.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Seed for data generation (--execute) and the stochastic optimizers (e.g. -o \
                hybrid).")
  in
  let degrade_arg =
    Arg.(
      value & flag
      & info [ "degrade" ]
          ~doc:"Use the resilient driver: try exact search first, degrade through DPccp, \
                hybrid and the cheaper of the greedy and estimate-free plans, and report the \
                provenance of the winning plan.  Implied by --deadline-ms and --max-table-mb.")
  in
  let deadline_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Wall-clock budget in milliseconds.  The exact search is interrupted when it \
                expires and a cheaper tier supplies the plan (implies --degrade).")
  in
  let max_table_mb_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-table-mb" ] ~docv:"MB"
          ~doc:"Memory ceiling for the DP table in mebibytes, checked before allocation.  \
                Queries whose table would not fit skip straight to table-free tiers \
                (implies --degrade).")
  in
  let num_domains_arg =
    Arg.(
      value
      & opt int 1
      & info [ "num-domains" ] ~docv:"N"
          ~doc:"Run the exhaustive DP rank-parallel on N OCaml domains (0 means the \
                runtime-recommended count).  The chosen plan and cost are bit-identical to \
                the sequential search at any N.  Applies to the plain, --threshold and \
                --degrade paths.")
  in
  let physical_arg =
    Arg.(
      value & flag
      & info [ "physical" ]
          ~doc:"Optimize with interesting sort orders (Section 6.5 extension): print a                 physical plan with sorts, merge joins and nested loops.  Honors the                 query's ORDER BY.")
  in
  let scramble_arg =
    Arg.(
      value & flag
      & info [ "scramble-catalog" ]
          ~doc:"Corrupt every cardinality with seeded NaN/infinite/negative garbage before \
                optimizing (the Chaos Catalog_scrambled fault).  The guarded driver repairs the \
                statistics with fabricated substitutes and degrades to the estimate-free \
                simpli-squared tier — a deterministic demonstration of planning without \
                statistics (implies --degrade).")
  in
  let corrupt_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "corrupt-seed" ] ~docv:"SEED"
          ~doc:"Seed for --scramble-catalog corruption (independent of --seed).")
  in
  let optimizer_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "optimizer" ] ~docv:"NAME"
          ~doc:"Dispatch through a specific registry entry (e.g. hybrid, dpccp, dpconv; 'blitz \
                compare' lists them) instead of the exact default.  Eligibility is checked \
                against the entry's capability metadata, so e.g. hybrid takes queries of any \
                size and dpccp sparse ones far beyond the dense DP-table cap.")
  in
  let run problem model threshold growth dump_table annotate execute seed physical degrade
      deadline_ms max_table_mb num_domains cache repeat metrics trace scramble corrupt_seed
      optimizer_name =
    obs_arm ~metrics ~trace;
    let names = Catalog.names problem.catalog in
    let num_domains = session_width num_domains in
    if repeat < 1 then begin
      Printf.eprintf "blitz: --repeat %d must be at least 1\n" repeat;
      exit 1
    end;
    check_threshold threshold;
    Option.iter check_growth growth;
    if scramble || degrade || deadline_ms <> None || max_table_mb <> None then
      refuse_on_guarded_path ~threshold ~growth;
    (if scramble then begin
      (* Catalog corruption is only survivable through the guarded
         driver: Sanitize fabricates substitute cardinalities and the
         cascade lands on the estimate-free tier. *)
      let input = Chaos.input_of problem.catalog problem.graph in
      let corrupted, faults = Chaos.scramble_catalog ~seed:corrupt_seed input in
      match
        Engine.with_session ~model ~num_domains (fun session ->
            Guard.optimize_input ~session ~seed model ~relations:corrupted.Chaos.relations
              ~edges:corrupted.Chaos.edges ())
      with
      | Error e ->
        Printf.eprintf "blitz: %s\n" (Guard.error_message e);
        exit 1
      | Ok o ->
        let p = o.Guard.provenance in
        Printf.printf "query:      %s\n" problem.label;
        Printf.printf "model:      %s (guarded driver, scrambled catalog)\n"
          model.Cost_model.name;
        List.iter
          (fun f -> Printf.printf "fault:      %s\n" (Chaos.fault_message f))
          faults;
        Printf.printf "repairs:    %d (statistics fabricated by the sanitizer)\n"
          (List.length o.Guard.repairs);
        Printf.printf "plan:       %s\n"
          (Plan.to_compact_string ~names:(Catalog.names o.Guard.catalog) o.Guard.plan);
        Printf.printf "tier:       %s\n" (Degrade.tier_name p.Degrade.winner);
        Printf.printf "provenance:\n";
        Format.printf "  %a@." Degrade.pp_provenance p
    end
    (* Any budget flag implies the resilient driver: a deadline or memory
       ceiling is only enforceable when degradation is allowed. *)
    else if degrade || deadline_ms <> None || max_table_mb <> None then begin
      let budget =
        match
          Budget.create ?deadline_ms
            ?max_table_bytes:(Option.map (fun mb -> mb * 1024 * 1024) max_table_mb)
            ()
        with
        | budget -> budget
        | exception Invalid_argument msg ->
          Printf.eprintf "blitz: %s\n" msg;
          exit 1
      in
      (* The guarded driver runs on a session, as the plain path does:
         its width decides whether the exact tier runs rank-parallel,
         and with --cache repeats are answered from the cache. *)
      match
        Engine.with_session ~model ~num_domains ?cache (fun session ->
            repeated repeat (fun () ->
                Guard.optimize ~budget ~session ~seed model problem.catalog problem.graph))
      with
      | Error e ->
        Printf.eprintf "blitz: %s\n" (Guard.error_message e);
        exit 1
      | Ok o ->
        let p = o.Guard.provenance in
        Printf.printf "query:      %s\n" problem.label;
        Printf.printf "model:      %s (guarded driver)\n" model.Cost_model.name;
        Printf.printf "plan:       %s\n" (Plan.to_compact_string ~names o.Guard.plan);
        Printf.printf "cost:       %g%s\n" o.Guard.cost
          (if p.Degrade.winner = Degrade.Exact then "" else " (not guaranteed optimal)");
        Printf.printf "tier:       %s%s\n"
          (Degrade.tier_name p.Degrade.winner)
          (if o.Guard.from_cache then " (plan served from session cache)" else "");
        Printf.printf "time:       %.4fs\n" (p.Degrade.total_ms /. 1000.0);
        Printf.printf "provenance:\n";
        Format.printf "  %a@." Degrade.pp_provenance p;
        print_cache_line cache
    end
    else if physical then begin
      let module O = Blitz_core.Blitzsplit_orders in
      let r = O.optimize ?required_order:problem.required_order problem.catalog problem.graph in
      let rec render = function
        | O.Scan i -> names.(i)
        | O.Sort (p, e) -> Printf.sprintf "sort[e%d](%s)" e (render p)
        | O.Nested_loop (l, r) -> Printf.sprintf "NL(%s, %s)" (render l) (render r)
        | O.Merge_join (l, r, e) -> Printf.sprintf "MERGE[e%d](%s, %s)" e (render l) (render r)
      in
      Printf.printf "query:      %s\n" problem.label;
      Printf.printf "physical:   %s\n" (render r.O.plan);
      Printf.printf "cost:       %g\n" r.O.cost;
      Printf.printf "order:      %s\n"
        (match O.order_of r.O.plan with
        | Some e -> Printf.sprintf "sorted on edge %d" e
        | None -> "none");
      Printf.printf "order-blind: %g (min(ksm, kdnl), no reuse)\n"
        (O.sm_dnl_reference_cost problem.catalog problem.graph)
    end
    else begin
    (match optimizer_name with
    | Some name -> (
      (* An explicit optimizer brings its own caps: eligibility replaces
         the blanket dense-table size check, which is what lets dpccp
         take sparse queries past the 24-relation cap. *)
      match Registry.find name with
      | None ->
        Printf.eprintf "blitz: unknown optimizer %S (known: %s)\n" name
          (String.concat ", " (Registry.names ()));
        exit 1
      | Some entry -> (
        match
          Registry.eligible entry
            ~connected:(Join_graph.is_connected problem.graph)
            ~n:(Catalog.n problem.catalog)
            ~is_tree:(B.Ikkbz.is_tree problem.graph)
        with
        | Ok () -> ()
        | Error reason ->
          Printf.eprintf "blitz: %s is not eligible here: %s\n" name reason;
          exit 1))
    | None ->
      if Catalog.n problem.catalog > Dp_table.max_relations then begin
        Printf.eprintf
          "blitz: %d relations exceed the %d-relation DP table; use -o hybrid for large \
           queries, or -o dpccp on a connected sparse join graph\n"
          (Catalog.n problem.catalog) Dp_table.max_relations;
        exit 1
      end);
    Engine.with_session ~model ~num_domains ~seed ?cache (fun session ->
    let prob = Registry.problem ~graph:problem.graph problem.catalog in
    let optimizer = Option.value ~default:"exact" optimizer_name in
    let t0 = Blitz_util.Clock.now_s () in
    let outcome =
      repeated repeat (fun () ->
          Engine.optimize ~optimizer ?threshold ?growth session prob)
    in
    let elapsed = Blitz_util.Clock.now_s () -. t0 in
    let plan =
      match outcome.Registry.plan with
      | Some p -> p
      | None ->
        (* Only overflow leaves an exact-class search without a plan:
           every candidate's estimated cost is infinite. *)
        Printf.eprintf
          "blitz: %s found no plan of finite cost: every plan's estimated cost overflows under \
           %s; rerun with --degrade to have a table-free tier answer\n"
          optimizer model.Cost_model.name;
        exit no_finite_plan_exit
    in
    Printf.printf "query:      %s\n" problem.label;
    Printf.printf "model:      %s\n" model.Cost_model.name;
    if ran_on_pool session (Registry.find_exn optimizer) ~n:(Catalog.n problem.catalog) then
      print_domains (Engine.num_domains session);
    Printf.printf "plan:       %s\n" (Plan.to_compact_string ~names plan);
    Printf.printf "cost:       %g\n" outcome.Registry.cost;
    Printf.printf "cardinality:%g\n" (Plan.cardinality problem.catalog problem.graph plan);
    Printf.printf "shape:      %s, %d cartesian product(s)\n"
      (if Plan.is_left_deep plan then "left-deep" else "bushy")
      (Plan.cartesian_join_count problem.graph plan);
    Printf.printf "time:       %.4fs (%d pass(es)%s)\n" elapsed outcome.Registry.passes
      (if repeat > 1 then Printf.sprintf ", %d runs" repeat else "");
    print_cache_line cache;
    if dump_table then begin
      print_newline ();
      match outcome.Registry.table with
      | Some table -> print_string (Dp_table.dump ~names table)
      | None -> ()
    end;
    if annotate then begin
      print_newline ();
      let annotated =
        Plan.annotate
          ~algorithms:[ ("sort-merge", Cost_model.sort_merge); ("nested-loops", Cost_model.kdnl) ]
          problem.catalog problem.graph plan
      in
      Format.printf "%a@." (Plan.pp_annotated ~names ()) annotated
    end;
    if execute then begin
      print_newline ();
      let module Datagen = Blitz_exec.Datagen in
      let module Executor = Blitz_exec.Executor in
      let rng = Rng.create ~seed in
      match Datagen.generate ~rng problem.catalog problem.graph with
      | exception Invalid_argument msg -> Printf.printf "cannot execute: %s\n" msg
      | data ->
        let comparisons = Executor.estimate_vs_actual data plan in
        Printf.printf "%-24s %14s %14s %8s\n" "intermediate" "estimated" "actual" "ratio";
        List.iter
          (fun { Executor.at; estimated; actual } ->
            Printf.printf "%-24s %14.1f %14.0f %8.3f\n"
              (Blitz_bitset.Relset.to_string ~names at)
              estimated actual
              (if estimated > 0.0 then actual /. estimated else Float.nan))
          comparisons
    end)
    end);
    obs_report ~metrics ~trace
  in
  let term =
    Term.(
      const run $ problem_term $ model_arg $ threshold_arg $ growth_arg $ dump_table_arg
      $ annotate_arg $ execute_arg $ seed_arg $ physical_arg $ degrade_arg
      $ deadline_ms_arg $ max_table_mb_arg $ num_domains_arg $ cache_term $ repeat_arg
      $ metrics_arg $ trace_arg $ scramble_arg $ corrupt_seed_arg $ optimizer_arg)
  in
  let exits =
    Cmd.Exit.info 1
      ~doc:"on an invalid option value or budget, or a query the optimizer cannot take."
    :: Cmd.Exit.info no_finite_plan_exit
         ~doc:
           "when no plan has a finite cost: every plan's estimated cost overflows.  With \
            $(b,--degrade) a table-free tier answers instead."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "optimize" ~exits ~doc:"Optimize a join query with the blitzsplit algorithm")
    term

(* ---- compare ---- *)

let compare_cmd =
  let run problem model =
    let n = Catalog.n problem.catalog in
    let is_tree = B.Ikkbz.is_tree problem.graph in
    let prob = Registry.problem ~graph:problem.graph problem.catalog in
    (* One session for the whole sweep: every DP-backed method reuses
       the same arena-pooled table buffer. *)
    Engine.with_session ~model (fun session ->
        let optimum = ref Float.nan in
        let rows =
          Registry.all ()
          |> List.filter_map (fun (e : Registry.entry) ->
                 if e.Registry.name = "bruteforce" then
                   (* The oracle enumerates every bushy plan — worth
                      running in tests, not in an interactive sweep. *)
                   Some [| e.Registry.name; "-"; "-"; "skipped (exhaustive oracle)" |]
                 else
                   match
                     Registry.eligible e
                       ~connected:(Join_graph.is_connected problem.graph)
                       ~n ~is_tree
                   with
                   | Error reason -> Some [| e.Registry.name; "-"; "-"; reason |]
                   | Ok () ->
                     (* Wall clock: the exact row may run on the pool. *)
                     let t0 = Blitz_util.Clock.now_s () in
                     let o = Engine.optimize ~optimizer:e.Registry.name session prob in
                     let dt = Blitz_util.Clock.now_s () -. t0 in
                     if e.Registry.name = "exact" then optimum := o.Registry.cost;
                     Some
                       [|
                         e.Registry.name;
                         Printf.sprintf "%.4f" dt;
                         (if Float.is_finite o.Registry.cost then
                            Printf.sprintf "%.4f" (o.Registry.cost /. !optimum)
                          else "no plan");
                         Option.value ~default:e.Registry.summary o.Registry.note;
                       |])
        in
        Printf.printf "query: %s   model: %s\n\n" problem.label model.Cost_model.name;
        Blitz_util.Ascii_table.print
          ~header:[| "method"; "time (s)"; "cost / optimal"; "note" |]
          (Array.of_list rows))
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every registered optimizer on one query")
    Term.(const run $ problem_term $ model_arg)

(* ---- workload ---- *)

let workload_cmd =
  let run n topology mean_card variability =
    match Workload.spec ~n ~topology ~model:Cost_model.naive ~mean_card ~variability with
    | exception Invalid_argument msg -> `Error (false, msg)
    | spec ->
      let catalog, graph = Workload.problem spec in
      Printf.printf "-- %s\n" (Workload.describe spec);
      for i = 0 to Catalog.n catalog - 1 do
        Printf.printf "CREATE TABLE %s (CARDINALITY %.6g);\n" (Catalog.name catalog i)
          (Catalog.card catalog i)
      done;
      let from =
        String.concat ", " (Array.to_list (Catalog.names catalog))
      in
      Printf.printf "SELECT * FROM %s\n" from;
      let edges = Join_graph.edges graph in
      List.iteri
        (fun i (a, b, sel) ->
          Printf.printf "%s %s.key%d = %s.key%d {%.9g}\n"
            (if i = 0 then "WHERE" else "  AND")
            (Catalog.name catalog a) b (Catalog.name catalog b) a sel)
        edges;
      Printf.printf ";\n";
      `Ok ()
  in
  let n_req =
    Arg.(required & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"Number of relations.")
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Emit an appendix-style benchmark workload as a SQL script (round-trips through \
             'blitz optimize --sql')")
    Term.(ret (const run $ n_req $ topology_arg $ mean_card_arg $ variability_arg))

(* ---- explain ---- *)

let explain_cmd =
  let optimizer_arg =
    Arg.(
      value
      & opt string "exact"
      & info [ "o"; "optimizer" ] ~docv:"NAME"
          ~doc:"Registry entry to explain with (default exact; 'blitz compare' lists them).")
  in
  let num_domains_arg =
    Arg.(
      value
      & opt int 1
      & info [ "num-domains" ] ~docv:"N"
          ~doc:"Run DP-backed optimizers rank-parallel on N domains (0 means the \
                runtime-recommended count).")
  in
  let threshold_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"COST"
          ~doc:"Plan-cost threshold (Section 6.4), positive and finite, as for 'blitz \
                optimize': the exact optimizer re-optimizes with a raised threshold on \
                failure; other optimizers ignore it.")
  in
  let run problem model optimizer num_domains threshold cache repeat metrics trace =
    (* Explain always records: the whole point is showing what the run
       did.  The process is this one query, so the metrics ARE the run's
       deltas. *)
    Obs.Metrics.set_enabled true;
    obs_arm ~metrics ~trace;
    if repeat < 1 then begin
      Printf.eprintf "blitz: --repeat %d must be at least 1\n" repeat;
      exit 1
    end;
    check_threshold threshold;
    let num_domains = session_width num_domains in
    let names = Catalog.names problem.catalog in
    let entry =
      match Registry.find optimizer with
      | Some e -> e
      | None ->
        Printf.eprintf "blitz: unknown optimizer %S (known: %s)\n" optimizer
          (String.concat ", " (Registry.names ()));
        exit 1
    in
    let n = Catalog.n problem.catalog in
    (match
       Registry.eligible entry
         ~connected:(Join_graph.is_connected problem.graph)
         ~n ~is_tree:(B.Ikkbz.is_tree problem.graph)
     with
    | Ok () -> ()
    | Error reason ->
      Printf.eprintf "blitz: %s is not eligible here: %s\n" optimizer reason;
      exit 1);
    let t0 = Blitz_util.Clock.now_s () in
    let outcome, domains =
      Engine.with_session ~model ~num_domains ?cache (fun session ->
          let prob = Registry.problem ~graph:problem.graph problem.catalog in
          (* The metric deltas below show a repeat's hit/miss counters. *)
          let o =
            repeated repeat (fun () -> Engine.optimize ~optimizer ?threshold session prob)
          in
          ( { o with Registry.table = None; counters = Option.map Counters.copy o.Registry.counters },
            if ran_on_pool session entry ~n then Some (Engine.num_domains session) else None ))
    in
    let elapsed = Blitz_util.Clock.now_s () -. t0 in
    let plan =
      match outcome.Registry.plan with
      | Some p -> p
      | None ->
        Printf.eprintf "blitz: %s produced no plan\n" optimizer;
        exit 1
    in
    Printf.printf "query:      %s\n" problem.label;
    Printf.printf "model:      %s\n" model.Cost_model.name;
    Printf.printf "optimizer:  %s%s\n" optimizer
      (if entry.Registry.caps.Registry.exact then " (exact)" else " (heuristic)");
    Option.iter print_domains domains;
    Printf.printf "plan:       %s\n" (Plan.to_compact_string ~names plan);
    Printf.printf "cost:       %g\n" outcome.Registry.cost;
    if outcome.Registry.passes > 1 || Float.is_finite outcome.Registry.final_threshold then
      Printf.printf "passes:     %d (final threshold %g)\n" outcome.Registry.passes
        outcome.Registry.final_threshold;
    (match outcome.Registry.note with
    | Some note -> Printf.printf "note:       %s\n" note
    | None -> ());
    print_cache_line cache;
    Printf.printf "time:       %.4fs\n" elapsed;
    (* The plan tree with the DP table's view of every node: the
       relation subset, its estimated cardinality, and the cumulative
       cost of the subtree rooted there. *)
    Printf.printf "\nplan tree (per-subset cardinality / cumulative cost):\n";
    let cartesian_here p l r =
      Plan.cartesian_join_count problem.graph p
      - Plan.cartesian_join_count problem.graph l
      - Plan.cartesian_join_count problem.graph r
      > 0
    in
    let rec render indent p =
      match p with
      | Plan.Leaf i ->
        Printf.printf "%sscan %s  card=%g\n" indent names.(i) (Catalog.card problem.catalog i)
      | Plan.Join (l, r) ->
        Printf.printf "%sjoin %s%s  card=%g  cost=%g\n" indent
          (Blitz_bitset.Relset.to_string ~names (Plan.relations p))
          (if cartesian_here p l r then " (cartesian)" else "")
          (Plan.cardinality problem.catalog problem.graph p)
          (Plan.cost model problem.catalog problem.graph p);
        render (indent ^ "  ") l;
        render (indent ^ "  ") r
    in
    render "  " plan;
    (match outcome.Registry.counters with
    | Some c when c.Counters.loop_iters > 0 || c.Counters.ccp_pairs > 0 ->
      Printf.printf "\nsplit-loop counters (this run):\n";
      Format.printf "  @[<v>%a@]@." Counters.pp c;
      (* A plain exact pass walks every split of every subset, so its
         counts are the ones Sections 3.3 and 6.2 predict. *)
      if optimizer = "exact" && Option.is_none threshold && c.Counters.loop_iters > 0 then begin
        let unordered = Counters.exact_loop_iters n in
        let ordered = 2 * unordered in
        (* An opaque kappa'' may be asymmetric, so its kernel keeps the
           ordered loop. *)
        let split_kind, iters =
          if Blitz_core.Split_loop.variant model = "general" then ("ordered", ordered)
          else ("unordered", unordered)
        in
        Printf.printf
          "\nanalytic bounds: loop iters = %d (one per %s split; Section 3.3's ordered loop \
           runs %d),\n\
          \  kappa'' in [%.0f, %.0f] for the ordered loop (Section 6.2)\n"
          iters split_kind ordered
          (Counters.predicted_dprime_lower n)
          (Counters.predicted_dprime_upper n)
      end
    | Some _ | None -> ());
    (* Which monomorphized split kernel the model dispatched to, with the
       measured rate when a blitzsplit pass fed the per-iteration
       histogram (dpccp-only runs have the kernel but no rate). *)
    (match outcome.Registry.counters with
    | Some c when c.Counters.loop_iters > 0 ->
      let h = Blitz_obs.Perf.split_loop_ns_per_iter in
      let passes = Obs.Metrics.histogram_count h in
      let rate =
        if passes > 0 then
          Printf.sprintf ", ~%.1f ns/split over %d pass%s"
            (Obs.Metrics.histogram_sum h /. float_of_int passes)
            passes
            (if passes = 1 then "" else "es")
        else ""
      in
      Printf.printf "\nkernel:     %s%s\n" (Blitz_core.Split_loop.variant model) rate
    | Some _ | None -> ());
    (* The run's metric deltas: counters and gauges are deterministic
       for a given query; histograms are shown as observation counts
       only (sums and buckets are timing-dependent — they go to
       --metrics/--trace files, not here). *)
    Printf.printf "\nmetrics (this run):\n";
    List.iter
      (function
        | Obs.Metrics.Counter { name; labels; value; _ } when value > 0 ->
          Printf.printf "  %s%s %d\n" name
            (match labels with
            | [] -> ""
            | l -> "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}")
            value
        | Obs.Metrics.Gauge { name; value; _ } when value <> 0.0 ->
          Printf.printf "  %s %g\n" name value
        | Obs.Metrics.Histogram { name; count; _ } when count > 0 ->
          Printf.printf "  %s count=%d\n" name count
        | _ -> ())
      (Obs.Metrics.snapshot ());
    obs_report ~metrics ~trace
  in
  let term =
    Term.(
      const run $ problem_term $ model_arg $ optimizer_arg $ num_domains_arg $ threshold_arg
      $ cache_term $ repeat_arg $ metrics_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Optimize a query and print the chosen plan tree with per-subset cardinality and \
             cost, the split-loop counters (with Section 3.3's analytic bounds for a plain \
             exact pass), and the run's metric deltas")
    term

(* ---- regret ---- *)

let regret_cmd =
  let mode_conv =
    let parse s = Result.map_error (fun e -> `Msg e) (Noise.mode_of_string s) in
    let print ppf m = Format.pp_print_string ppf (Noise.mode_name m) in
    Arg.conv (parse, print)
  in
  let n_arg =
    Arg.(
      value & opt int 9
      & info [ "n" ] ~docv:"N" ~doc:"Number of relations per generated workload (default 9).")
  in
  let mode_arg =
    Arg.(
      value
      & opt mode_conv Noise.Lognormal
      & info [ "mode" ] ~docv:"MODE" ~doc:"Noise model: lognormal or adversarial.")
  in
  let levels_arg =
    Arg.(
      value
      & opt (list float) [ 0.0; 0.5; 1.0; 2.0 ]
      & info [ "levels" ] ~docv:"L,..."
          ~doc:"Error levels in decades (standard deviation for lognormal, band edge for \
                adversarial).")
  in
  let seeds_arg =
    Arg.(
      value & opt int 3
      & info [ "seeds" ] ~docv:"K" ~doc:"Number of perturbation seeds per cell (seeds 1..K).")
  in
  let optimizers_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "o"; "optimizers" ] ~docv:"NAME,..."
          ~doc:"Optimizers to sweep (default: every registry entry except bruteforce).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the full report (per-seed samples included) as JSON.")
  in
  let run model n mode levels seeds optimizers json =
    if seeds < 1 then `Error (false, Printf.sprintf "--seeds %d must be at least 1" seeds)
    else
      let known = Registry.names () in
      match
        Option.iter
          (List.iter (fun o ->
               if not (List.mem o known) then
                 failwith
                   (Printf.sprintf "unknown optimizer %S (known: %s)" o
                      (String.concat ", " known))))
          optimizers
      with
      | exception Failure msg -> `Error (false, msg)
      | () -> (
        match
          Regret.run ~mode ?optimizers ~levels ~seeds:(List.init seeds (fun i -> i + 1)) ~n model
        with
        | exception Invalid_argument msg -> `Error (false, msg)
        | report ->
          if json then
            print_string
              (Blitz_util.Json.to_string ~indent:true (Regret.report_to_json report) ^ "\n")
          else Format.printf "%a@." Regret.pp report;
          `Ok ())
  in
  Cmd.v
    (Cmd.info "regret"
       ~doc:"Measure plan-cost regret under cardinality-estimate error: every optimizer plans \
             on a seeded noise-perturbed catalog and is judged under the true statistics \
             (regret = true cost of its choice / true optimal cost)")
    Term.(
      ret (const run $ model_arg $ n_arg $ mode_arg $ levels_arg $ seeds_arg $ optimizers_arg
           $ json_arg))

(* ---- optimizers: the registry capability table ---- *)

let optimizers_cmd =
  let run () =
    let entries = Registry.all () in
    let yn b = if b then "yes" else "-" in
    let row = Printf.printf "%-22s %-5s %-5s %-5s %-4s %s\n" in
    row "name" "max_n" "exact" "tree" "conn" "par";
    List.iter
      (fun (e : Registry.entry) ->
        let c = e.Registry.caps in
        row e.Registry.name
          (match c.Registry.max_n with Some n -> string_of_int n | None -> "-")
          (yn c.Registry.exact) (yn c.Registry.tree_only) (yn c.Registry.connected_only)
          (yn c.Registry.parallelizable))
      entries;
    Printf.printf "\n%d optimizers registered\n" (List.length entries)
  in
  Cmd.v
    (Cmd.info "optimizers"
       ~doc:
         "Dump the optimizer registry's capability table (the source of truth the \
          documentation tables are checked against)")
    Term.(const run $ const ())

(* ---- serve / query: the NDJSON optimizer server and a line client ---- *)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind (serve) or connect to (query).")

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 7411
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port to listen on (0 picks an ephemeral one).")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"K" ~doc:"Optimizer worker domains, each owning one engine session.")
  in
  let tenants_arg =
    Arg.(
      value & opt string ""
      & info [ "tenants" ] ~docv:"SPEC"
          ~doc:
            "Tenant table, e.g. 'acme:deadline-ms=50,table-mb=8,rps=100,burst=20;beta:rps=5'. \
             Settings: deadline-ms, table-mb, rps, burst (all optional).  A 'default' tenant \
             is always available; name it in SPEC to limit it.")
  in
  let serve_cache_mb_arg =
    Arg.(
      value & opt int 4
      & info [ "cache-mb" ] ~docv:"MB" ~doc:"Shared plan-cache budget in mebibytes (default 4).")
  in
  let serve_no_cache_arg =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Run without a plan cache.")
  in
  let shed_queue_arg =
    Arg.(
      value & opt int 16
      & info [ "shed-queue" ] ~docv:"DEPTH"
          ~doc:"Queue depth at which requests start shedding through the degrade cascade.")
  in
  let shed_deadline_arg =
    Arg.(
      value & opt float 5.
      & info [ "shed-deadline-ms" ] ~docv:"MS" ~doc:"Deadline clamp applied to shed requests.")
  in
  let max_requests_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-requests" ] ~docv:"K"
          ~doc:"Exit after K optimize/explain responses (deterministic teardown for tests).")
  in
  let port_file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:"Write the bound port to FILE once listening (for --port 0 callers).")
  in
  let serve_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for the stochastic optimizer tiers.")
  in
  let run host port workers tenants_spec model cache_mb no_cache shed_queue shed_deadline_ms
      max_requests port_file seed =
    match Blitz_serve.Tenant.parse_spec tenants_spec with
    | Error msg -> `Error (false, msg)
    | Ok tenants -> (
      match
        Blitz_serve.Server.config ~host ~port ~workers ~tenants ~model
          ~cache:(Plan_cache.create ~max_bytes:(cache_mb * 1024 * 1024) ())
          ~shed_queue ~shed_deadline_ms ?max_requests ~seed ()
      with
      | exception Invalid_argument msg -> `Error (false, msg)
      | cfg -> (
        let cfg = if no_cache then { cfg with Blitz_serve.Server.cache = None } else cfg in
        match Blitz_serve.Server.start cfg with
        | exception Unix.Unix_error (err, _, _) ->
          `Error (false, Printf.sprintf "cannot listen on %s:%d: %s" host port (Unix.error_message err))
        | server ->
          let bound = Blitz_serve.Server.port server in
          (match port_file with
          | None -> ()
          | Some path ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (string_of_int bound ^ "\n")));
          Printf.printf "serving on %s:%d (%d worker(s), %d tenant(s))\n%!" host bound workers
            (List.length tenants + if List.exists (fun t -> t.Blitz_serve.Tenant.name = "default") tenants then 0 else 1);
          Blitz_serve.Server.wait server;
          `Ok ()))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the optimizer over newline-delimited JSON (methods: optimize, explain, stats, \
          health; GET /metrics on the same port answers Prometheus scrapes)")
    Term.(
      ret
        (const run $ host_arg $ port_arg $ workers_arg $ tenants_arg $ model_arg
       $ serve_cache_mb_arg $ serve_no_cache_arg $ shed_queue_arg $ shed_deadline_arg
       $ max_requests_arg $ port_file_arg $ serve_seed_arg))

let query_cmd =
  let port_arg =
    Arg.(
      required & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port to connect to.")
  in
  let run host port =
    match
      Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
    with
    | exception Unix.Unix_error (err, _, _) ->
      `Error (false, Printf.sprintf "cannot connect to %s:%d: %s" host port (Unix.error_message err))
    | ic, oc ->
      (* Closed loop: one request line out, one response line in — the
         shape the cram tests and quickstart examples rely on. *)
      let rec go () =
        match In_channel.input_line stdin with
        | None -> ()
        | Some line ->
          if String.trim line = "" then go ()
          else begin
            Out_channel.output_string oc (line ^ "\n");
            Out_channel.flush oc;
            (match In_channel.input_line ic with
            | Some resp -> print_endline resp
            | None | (exception Sys_error _) -> failwith "server closed the connection");
            go ()
          end
      in
      let result =
        match go () with
        | () -> `Ok ()
        | exception Failure msg -> `Error (false, msg)
        | exception Sys_error msg -> `Error (false, msg)
      in
      (try Unix.shutdown (Unix.descr_of_out_channel oc) Unix.SHUTDOWN_ALL
       with Unix.Unix_error _ -> ());
      close_in_noerr ic;
      result
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send newline-delimited JSON requests from standard input to a blitz server and print \
          each response")
    Term.(ret (const run $ host_arg $ port_arg))

let main_cmd =
  let doc = "bushy join-order optimization with Cartesian products (Vance & Maier, SIGMOD 1996)" in
  Cmd.group (Cmd.info "blitz" ~version:"1.0.0" ~doc)
    [
      optimize_cmd;
      explain_cmd;
      compare_cmd;
      workload_cmd;
      regret_cmd;
      optimizers_cmd;
      serve_cmd;
      query_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
