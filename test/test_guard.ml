(* The resilient driver: budgets, sanitization, the degradation cascade
   and the chaos contract — for any corrupted input, [Guard.optimize]
   returns a valid plan or a typed error, never an exception. *)

open Test_helpers
module Blitzsplit = Blitz_core.Blitzsplit
module Dp_table = Blitz_core.Dp_table
module Registry = Blitz_engine.Registry
module Engine = Blitz_engine.Engine
module Workload = Blitz_workload.Workload
module Obs = Blitz_obs.Obs
module Budget = Blitz_guard.Budget
module Sanitize = Blitz_guard.Sanitize
module Chaos = Blitz_guard.Chaos
module Degrade = Blitz_guard.Degrade
module Guard = Blitz_guard.Guard

let check_float = Test_helpers.check_float

let validate_against catalog plan =
  match Plan.validate ~n:(Catalog.n catalog) plan with
  | Ok () -> true
  | Error _ -> false

(* Appendix-style problems at a chosen size and shape. *)
let topology_problem ~n shape =
  let catalog = Catalog.of_cards (Array.init n (fun i -> 100.0 +. (37.0 *. float_of_int i))) in
  (catalog, Topology.make shape catalog)

(* ---- budgets ---- *)

let test_budget_basics () =
  Alcotest.check_raises "non-positive deadline"
    (Invalid_argument "Budget.create: deadline -1 ms is not positive") (fun () ->
      ignore (Budget.create ~deadline_ms:(-1.0) ()));
  Alcotest.check_raises "non-positive ceiling"
    (Invalid_argument "Budget.create: memory ceiling 0 B is not positive") (fun () ->
      ignore (Budget.create ~max_table_bytes:0 ()));
  let table n = Dp_table.estimate_bytes ~n () in
  Alcotest.(check int) "table footprint n=10" (40 * 1024) (table 10);
  Alcotest.(check int) "footprint saturates" max_int (table 60);
  let b = Budget.create ~max_table_bytes:(40 * 1024) () in
  Alcotest.(check bool) "n=10 fits exactly" true (Budget.admits_bytes b (table 10));
  Alcotest.(check bool) "n=11 does not" false (Budget.admits_bytes b (table 11));
  let u = Budget.unlimited () in
  Alcotest.(check bool) "unlimited never expires" false (Budget.expired u);
  Alcotest.(check bool) "unlimited admits anything" true (Budget.admits_bytes u (table 24))

(* ---- sanitization ---- *)

let raw_relations = [ ("a", 10.0); ("b", 20.0); ("c", 30.0) ]

let test_sanitize_lenient_repairs () =
  (* One clampable selectivity, one duplicate edge, one wild endpoint:
     all repairable; the clean graph keeps only the sound edges. *)
  let edges = [ (0, 1, 1.5); (0, 1, 1.5); (1, 7, 0.5); (1, 2, 0.25) ] in
  match Sanitize.check ~relations:raw_relations ~edges () with
  | Error issues ->
    Alcotest.failf "expected repairs, got errors: %s"
      (String.concat "; " (List.map Sanitize.issue_message issues))
  | Ok clean ->
    Alcotest.(check int) "three repairs" 3 (List.length clean.Sanitize.repairs);
    Alcotest.(check int) "two edges survive" 2 (Join_graph.edge_count clean.Sanitize.graph);
    check_float "selectivity clamped to 1" 1.0 (Join_graph.selectivity clean.Sanitize.graph 0 1);
    check_float "good edge untouched" 0.25 (Join_graph.selectivity clean.Sanitize.graph 1 2)

let test_sanitize_strict_rejects () =
  let edges = [ (0, 1, 1.5); (1, 2, 0.25) ] in
  match Sanitize.check ~policy:Sanitize.strict ~relations:raw_relations ~edges () with
  | Ok _ -> Alcotest.fail "strict policy must reject a selectivity above 1"
  | Error [ Sanitize.Selectivity_above_one { i = 0; j = 1; sel } ] ->
    check_float "offending selectivity" 1.5 sel
  | Error issues ->
    Alcotest.failf "unexpected issues: %s"
      (String.concat "; " (List.map Sanitize.issue_message issues))

let test_sanitize_collects_all_errors () =
  (* Under the strict policy every relation defect is an error, and ALL
     of them are reported — not just the first. *)
  let relations = [ ("a", Float.nan); ("", 20.0); ("c", -3.0) ] in
  match Sanitize.check ~policy:Sanitize.strict ~relations ~edges:[] () with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error issues -> Alcotest.(check int) "all three defects reported" 3 (List.length issues)

let test_sanitize_defaults_cardinalities () =
  (* Lenient mode keeps a corrupted catalog plannable: invalid
     cardinalities become the geometric mean of the valid ones, each
     substitution recorded as a fabricated-statistics repair.  Name
     defects stay irreparable under any policy. *)
  let relations = [ ("a", Float.nan); ("b", 20.0); ("c", -3.0); ("d", 5.0) ] in
  (match Sanitize.check ~relations ~edges:[ (0, 1, 0.5) ] () with
  | Error issues ->
    Alcotest.failf "expected repairs, got errors: %s"
      (String.concat "; " (List.map Sanitize.issue_message issues))
  | Ok clean ->
    let defaulted =
      List.filter_map
        (function Sanitize.Cardinality_defaulted { name; substitute; _ } -> Some (name, substitute) | _ -> None)
        clean.Sanitize.repairs
    in
    Alcotest.(check (list (pair string (float 1e-9))))
      "both bad cards defaulted to the geometric mean of the valid ones"
      [ ("a", 10.0); ("c", 10.0) ]
      defaulted;
    check_float "substitute installed in the catalog" 10.0 (Catalog.card clean.Sanitize.catalog 0);
    check_float "valid card untouched" 20.0 (Catalog.card clean.Sanitize.catalog 1);
    Alcotest.(check bool) "repairs are fabricated stats" true
      (Sanitize.fabricated_stats clean.Sanitize.repairs));
  (* With no valid cardinality at all, the substitute falls back to 1. *)
  (match Sanitize.check ~relations:[ ("a", Float.infinity); ("b", 0.0) ] ~edges:[] () with
  | Error _ -> Alcotest.fail "all-invalid catalog must still be repairable"
  | Ok clean ->
    check_float "fallback substitute is 1" 1.0 (Catalog.card clean.Sanitize.catalog 0));
  (* Edge repairs alone are honest — not fabricated statistics. *)
  Alcotest.(check bool) "clamp is not fabricated" false
    (Sanitize.fabricated_stats [ Sanitize.Selectivity_above_one { i = 0; j = 1; sel = 1.5 } ])

(* ---- the degradation cascade ---- *)

(* The headline acceptance scenario: an 18-relation clique under a 1 ms
   deadline.  Exact search is interrupted mid-table; the remaining
   budgeted tiers are skipped; greedy (the terminal, deadline-exempt
   tier) supplies a valid plan, and the provenance names the aborted
   tier. *)
let test_deadline_degrades_to_greedy () =
  let catalog, graph = topology_problem ~n:18 Topology.Clique in
  let budget = Budget.create ~deadline_ms:1.0 () in
  match Guard.optimize ~budget Cost_model.kdnl catalog graph with
  | Error e -> Alcotest.failf "guard failed: %s" (Guard.error_message e)
  | Ok o ->
    Alcotest.(check bool) "plan is valid" true (validate_against catalog o.Guard.plan);
    Alcotest.(check string) "greedy wins" "greedy"
      (Degrade.tier_name o.Guard.provenance.Degrade.winner);
    let exact_attempt =
      List.find (fun a -> a.Degrade.tier = Degrade.Exact) o.Guard.provenance.Degrade.attempts
    in
    (match exact_attempt.Degrade.status with
    | Degrade.Aborted Degrade.Deadline -> ()
    | _ -> Alcotest.fail "provenance must record the exact tier aborting on the deadline");
    check_float ~rel:1e-9 "outcome cost is the plan's cost" o.Guard.cost
      (Plan.cost Cost_model.kdnl catalog graph o.Guard.plan)

let test_memory_cap_skips_to_hybrid () =
  let catalog, graph = topology_problem ~n:12 Topology.Chain in
  (* Ceiling below the 40 * 2^12 B table: both DP tiers must skip
     BEFORE allocating, with the footprint in the provenance. *)
  let budget = Budget.create ~max_table_bytes:(Dp_table.estimate_bytes ~n:12 () - 1) () in
  match Guard.optimize ~budget Cost_model.kdnl catalog graph with
  | Error e -> Alcotest.failf "guard failed: %s" (Guard.error_message e)
  | Ok o ->
    Alcotest.(check string) "hybrid wins" "hybrid"
      (Degrade.tier_name o.Guard.provenance.Degrade.winner);
    List.iter
      (fun a ->
        match (a.Degrade.tier, a.Degrade.status) with
        | Degrade.Exact, Degrade.Skipped (Degrade.Memory { needed_bytes; _ }) ->
          (* The exact tier's pass also takes the per-rank subset
             lists. *)
          Alcotest.(check int) "needed bytes recorded"
            (Dp_table.estimate_bytes ~n:12 () + Blitz_core.Live_index.estimate_bytes ~n:12)
            needed_bytes
        | Degrade.Dpccp, Degrade.Skipped (Degrade.Memory { needed_bytes; _ }) ->
          Alcotest.(check int) "needed bytes recorded" (Dp_table.estimate_bytes ~n:12 ()) needed_bytes
        | (Degrade.Exact | Degrade.Dpccp), _ -> Alcotest.fail "DP tier was not memory-skipped"
        | _ -> ())
      o.Guard.provenance.Degrade.attempts;
    Alcotest.(check bool) "plan is valid" true (validate_against catalog o.Guard.plan)

(* A session's arena charges each DP tier only what it draws from the
   arena: the exact tier's pass takes the table and the per-rank
   subset lists, dpccp's dense backend the table alone, and its
   sparse backend (past [Dpccp.dense_limit]) nothing, so it is charged
   its entry's own estimate.  A 10 MiB ceiling at n = 18 holds dpccp's
   table but not exact's table and lists; 100 MiB at n = 22 holds the
   sparse backend's estimate but not a dense table of 22 relations.
   The session answers as a session-free call does. *)
let test_session_charges_what_tiers_draw () =
  List.iter
    (fun (n, mib) ->
      let catalog, graph = topology_problem ~n Topology.Chain in
      let budget = Budget.create ~max_table_bytes:(mib * 1024 * 1024) () in
      let winner o = Degrade.tier_name o.Guard.provenance.Degrade.winner in
      let run session =
        match Guard.optimize ~budget ?session Cost_model.naive catalog graph with
        | Ok o -> o
        | Error e -> Alcotest.failf "guard failed: %s" (Guard.error_message e)
      in
      let o =
        Engine.with_session ~model:Cost_model.naive ~num_domains:1 (fun s -> run (Some s))
      in
      Alcotest.(check string) (Printf.sprintf "n = %d: dpccp answers on a session" n) "dpccp"
        (winner o);
      Alcotest.(check string) (Printf.sprintf "n = %d: as without one" n) (winner (run None))
        (winner o);
      List.iter
        (fun a ->
          match (a.Degrade.tier, a.Degrade.status) with
          | Degrade.Exact, Degrade.Skipped (Degrade.Memory { needed_bytes; _ }) ->
            Alcotest.(check int) "exact is charged table and lists"
              (Dp_table.estimate_bytes ~n () + Blitz_core.Live_index.estimate_bytes ~n)
              needed_bytes
          | Degrade.Exact, _ -> Alcotest.fail "the exact tier was not memory-skipped"
          | _ -> ())
        o.Guard.provenance.Degrade.attempts)
    [ (18, 10); (22, 100) ]

let test_unbudgeted_matches_exact () =
  (* With no budget the exact tier answers, at blitzsplit's own cost
     (bit for bit: see the seeded-exact-tier property below). *)
  for seed = 1 to 12 do
    let rng = Rng.create ~seed in
    let n = 2 + Rng.int rng 9 in
    let catalog = random_catalog rng ~n ~lo:1.0 ~hi:1e4 in
    let graph = random_graph rng ~n ~edge_prob:0.5 ~sel_lo:1e-4 ~sel_hi:1.0 in
    let exact = Blitzsplit.best_cost (Blitzsplit.optimize_join Cost_model.kdnl catalog graph) in
    match Guard.optimize Cost_model.kdnl catalog graph with
    | Error e -> Alcotest.failf "seed %d: guard failed: %s" seed (Guard.error_message e)
    | Ok o ->
      Alcotest.(check string) "exact tier wins" "exact"
        (Degrade.tier_name o.Guard.provenance.Degrade.winner);
      Alcotest.(check int64) "same cost bits as blitzsplit" (Int64.bits_of_float exact)
        (Int64.bits_of_float o.Guard.cost)
  done

(* ---- the exact tier's upper bound ---- *)

let rescue_passes () = Obs.Metrics.value (Obs.Metrics.counter "blitz_threshold_rescue_passes_total")

(* Recording on for [f], as it was after. *)
let with_metrics f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) f

type seeded_case = {
  spec : Workload.spec;
  model : Cost_model.t;
  default_session : bool;
}

let pp_seeded_case ppf c =
  Format.fprintf ppf "%s model=%s default_session=%b" (Workload.describe c.spec)
    c.model.Cost_model.name c.default_session

(* n 2-14, and 15-16 through a default-width session so the DP runs on
   the session's pool; four topologies plus grid; the three paper
   models and an Opaque min-of; cardinality scale and spread. *)
let seeded_case_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Rng.create ~seed in
        let large = Rng.int rng 6 = 0 in
        let n = if large then 15 + Rng.int rng 2 else 2 + Rng.int rng 13 in
        let topology =
          match Rng.int rng 5 with
          | 0 -> Topology.Chain
          | 1 -> Topology.Star
          | 2 when n >= 7 -> Topology.Cycle_plus 2
          | 2 | 3 -> Topology.Clique
          | _ -> Topology.grid ~n
        in
        let model =
          match Rng.int rng 4 with
          | 0 -> Cost_model.naive
          | 1 -> Cost_model.sort_merge
          | 2 -> Cost_model.kdnl
          | _ -> Cost_model.min_of Cost_model.naive Cost_model.kdnl
        in
        let mean_card = [| 10.0; 100.0; 2000.0 |].(Rng.int rng 3)
        and variability = [| 0.0; 1.0 /. 3.0; 0.8 |].(Rng.int rng 3) in
        {
          spec = Workload.spec ~n ~topology ~model ~mean_card ~variability;
          model;
          default_session = large || Rng.int rng 2 = 0;
        })
      (int_bound 1_000_000))

(* The cascade's exact tier prunes at the upper bound (and under kappa_sm
   at each subset's completion term) yet answers with
   the unthresholded paper DP's plan and cost bits, and no rescue pass
   runs: the seeded pass never misses the optimum.  Every execution
   shape counts: no session, a default-width session (rank-parallel from
   n = 14 on a multi-core machine), and BLITZ_TEST_DOMAINS widths. *)
let prop_seeded_exact_tier =
  QCheck2.Test.make ~count:60 ~name:"seeded exact tier = unthresholded exact, bit for bit"
    ~print:(Format.asprintf "%a" pp_seeded_case) seeded_case_gen (fun c ->
      let catalog, graph = Workload.problem c.spec in
      let problem = Registry.problem ~graph catalog in
      let plain =
        Engine.with_session ~model:c.model ~num_domains:1 (fun s ->
            Engine.optimize ~optimizer:"exact" s problem)
      in
      let guarded session = Guard.optimize ?session c.model catalog graph in
      let with_width num_domains =
        Engine.with_session ~model:c.model ?num_domains (fun s -> guarded (Some s))
      in
      with_metrics (fun () ->
          let rescues = rescue_passes () in
          let answers =
            (if c.default_session then [ ("default session", with_width None) ]
             else [ ("no session", guarded None) ])
            @ List.map
                (fun d -> (Printf.sprintf "%d-domain session" d, with_width (Some d)))
                env_domains
          in
          List.iter
            (fun (shape, answer) ->
              match answer with
              | Error e -> QCheck2.Test.fail_reportf "%s: %s" shape (Guard.error_message e)
              | Ok o ->
                let winner = Degrade.tier_name o.Guard.provenance.Degrade.winner in
                if winner <> "exact" then QCheck2.Test.fail_reportf "%s: %s won" shape winner;
                if
                  Some o.Guard.plan <> plain.Registry.plan
                  || Int64.bits_of_float o.Guard.cost <> Int64.bits_of_float plain.Registry.cost
                then
                  QCheck2.Test.fail_reportf "%s: %s at %.17g, plain exact %s at %.17g" shape
                    (Plan.to_compact_string o.Guard.plan)
                    o.Guard.cost
                    (Option.fold ~none:"no plan" ~some:Plan.to_compact_string
                       plain.Registry.plan)
                    plain.Registry.cost)
            answers;
          if Registry.upper_bound c.model problem <> None && rescue_passes () <> rescues then
            QCheck2.Test.fail_reportf "a rescue pass ran although the upper bound is finite";
          true))

(* Four relations and no predicates, under kappa_sm, which prices a
   join by its operands.  Greedy first merges the smallest product, a and
   b; every option left then overflows, so it joins an infinite operand
   and its cost is infinite.  Simpli-Squared's left-deep order a, b, x, y
   feeds the infinite a x b x x to its last join too: there is no bound.
   Pairing a with y and b with x keeps every operand finite (only the
   final result overflows, and it is no operand).  The exact tier takes
   one unthresholded pass and answers exactly as the plain DP does. *)
let test_overflowing_greedy_takes_plain_pass () =
  let catalog = Catalog.of_list [ ("a", 1e100); ("b", 1e105); ("x", 1e110); ("y", 1e199) ] in
  let graph = Join_graph.of_edges ~n:4 [] in
  let model = Cost_model.sort_merge in
  let problem = Registry.problem ~graph catalog in
  let _, greedy_cost = Blitz_baselines.Greedy.optimize model catalog graph in
  check_float "greedy cost overflows" Float.infinity greedy_cost;
  Alcotest.(check bool) "no upper bound" true (Registry.upper_bound model problem = None);
  let plain =
    Engine.with_session ~model ~num_domains:1 (fun s ->
        Engine.optimize ~optimizer:"exact" s problem)
  in
  Alcotest.(check bool) "the optimum is finite" true (Float.is_finite plain.Registry.cost);
  with_metrics (fun () ->
      let passes = Obs.Metrics.counter "blitz_threshold_passes_total" in
      let before = Obs.Metrics.value passes in
      (match
         Degrade.run_tier ~budget:(Budget.unlimited ()) ~seed:1 Degrade.Exact model catalog graph
       with
      | _, Some _ -> Alcotest.fail "the exact attempt reports a bound"
      | Error f, None -> Alcotest.failf "exact tier failed: %s" (Degrade.failure_message f)
      | Ok (plan, cost), None ->
        Alcotest.(check bool) "plain exact's plan" true (Some plan = plain.Registry.plan);
        Alcotest.(check int64) "plain exact's cost bits" (Int64.bits_of_float plain.Registry.cost)
          (Int64.bits_of_float cost));
      Alcotest.(check int) "no thresholded pass ran" before (Obs.Metrics.value passes));
  match Guard.optimize model catalog graph with
  | Error e -> Alcotest.failf "guard failed: %s" (Guard.error_message e)
  | Ok o ->
    Alcotest.(check string) "exact tier wins" "exact"
      (Degrade.tier_name o.Guard.provenance.Degrade.winner);
    Alcotest.(check bool)
      "guard answers the plain plan" true
      (Some o.Guard.plan = plain.Registry.plan)

(* The exact tier's bound is the cheaper heuristic plan.  On an
   appendix clique under kappa_dnl greedy's plan is orders of magnitude
   above the optimum and Simpli-Squared's is close to it; on a chain
   greedy is the tighter one.  The guarded run names the bound it
   pruned at, in its provenance and in the trace ring. *)
let test_upper_bound_sources () =
  let model = Cost_model.kdnl in
  let cell topology =
    Workload.problem
      (Workload.spec ~n:14 ~topology ~model ~mean_card:150.0 ~variability:(1.0 /. 3.0))
  in
  let bound_of (catalog, graph) =
    match Registry.upper_bound model (Registry.problem ~graph catalog) with
    | Some b -> b
    | None -> Alcotest.fail "no upper bound"
  in
  let clique = cell Topology.Clique and chain = cell Topology.Chain in
  let b = bound_of clique in
  Alcotest.(check string) "clique: source" "simpli-squared" b.Registry.source;
  let _, greedy = Blitz_baselines.Greedy.optimize model (fst clique) (snd clique) in
  Alcotest.(check bool)
    (Printf.sprintf "clique: bound %g below greedy's %g" b.Registry.value greedy)
    true (b.Registry.value < greedy);
  Alcotest.(check string) "chain: source" "greedy" (bound_of chain).Registry.source;
  let was = Obs.Trace.enabled () in
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  let answer =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_enabled was)
      (fun () -> Guard.optimize model (fst clique) (snd clique))
  in
  match answer with
  | Error e -> Alcotest.failf "guard failed: %s" (Guard.error_message e)
  | Ok o -> (
    match o.Guard.provenance.Degrade.attempts with
    | [ { Degrade.tier = Degrade.Exact; bound = Some pb; _ } ] ->
      Alcotest.(check bool) "provenance: the bound and its source" true (pb.Degrade.upper = b);
      Alcotest.(check bool) "provenance: subsets skipped" true (pb.Degrade.threshold_skips > 0);
      let instant =
        List.find_opt
          (fun (e : Obs.Trace.event) -> e.Obs.Trace.name = "degrade.exact.bound")
          (Obs.Trace.events ())
      in
      Alcotest.(check (option (list (pair string string))))
        "trace: the bound beside the exact span"
        (Some
           [
             ("bound", Printf.sprintf "%g" b.Registry.value);
             ("source", "simpli-squared");
             ("threshold_skips", string_of_int pb.Degrade.threshold_skips);
           ])
        (Option.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.attrs) instant)
    | _ -> Alcotest.fail "expected one exact attempt with a bound")

(* Every plan is binary: [~multiway:true], which the benchmark ladder
   still forwards from the wire, is refused with a typed error before
   the cache or any tier is touched, and [false] is the plain request. *)
let test_multiway_refused () =
  let model = Cost_model.kdnl in
  let catalog, graph =
    Workload.problem
      (Workload.spec ~n:8 ~topology:Topology.Clique ~model ~mean_card:1000.0 ~variability:0.0)
  in
  let cache = Engine.Plan_cache.create ~max_bytes:(1 lsl 20) () in
  Engine.with_session ~model ~num_domains:1 ~cache (fun session ->
      (match Guard.optimize ~session ~multiway:true model catalog graph with
      | Error Guard.Multiway_retired -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Guard.error_message e)
      | Ok _ -> Alcotest.fail "a multiway request was answered");
      let stats = Engine.Plan_cache.stats cache in
      Alcotest.(check int) "no cache lookup" 0 (stats.Engine.Plan_cache.hits + stats.misses);
      Alcotest.(check int) "no table acquired" 0 (Blitz_core.Arena.acquires (Engine.arena session));
      match Guard.optimize ~session ~multiway:false model catalog graph with
      | Ok o ->
        Alcotest.(check string) "false runs the cascade" "exact"
          (Degrade.tier_name o.Guard.provenance.Degrade.winner)
      | Error e -> Alcotest.failf "guard failed: %s" (Guard.error_message e))

let test_overflowing_stats_degrade_past_dpccp () =
  (* Every plan's cost overflows to infinity: exact and dpccp find no
     finite plan and say so, and a table-free tier answers. *)
  let spec =
    Workload.spec ~n:3 ~topology:Topology.Chain ~model:Cost_model.naive ~mean_card:1e150
      ~variability:0.5
  in
  let catalog, graph = Workload.problem spec in
  match Guard.optimize Cost_model.naive catalog graph with
  | Error e -> Alcotest.failf "guard failed: %s" (Guard.error_message e)
  | Ok o ->
    let winner = Degrade.tier_name o.Guard.provenance.Degrade.winner in
    Alcotest.(check bool) ("hybrid or greedy answers, got " ^ winner) true
      (winner = "hybrid" || winner = "greedy");
    check_float "its cost overflowed" Float.infinity o.Guard.cost;
    Alcotest.(check bool) "plan is valid" true (validate_against catalog o.Guard.plan);
    List.iter
      (fun a ->
        match (a.Degrade.tier, a.Degrade.status) with
        | (Degrade.Exact | Degrade.Dpccp), Degrade.Aborted Degrade.No_finite_plan -> ()
        | (Degrade.Exact | Degrade.Dpccp), _ ->
          Alcotest.failf "%s should find no finite plan" (Degrade.tier_name a.Degrade.tier)
        | _ -> ())
      o.Guard.provenance.Degrade.attempts

let test_every_tier_valid_and_bounded () =
  (* Chain topology so IKKBZ applies: every tier, run in isolation, must
     produce a valid plan whose cost is consistent with Plan.cost and no
     better than the exact optimum. *)
  let catalog, graph = topology_problem ~n:7 Topology.Chain in
  let model = Cost_model.kdnl in
  let optimum = Blitzsplit.best_cost (Blitzsplit.optimize_join model catalog graph) in
  let budget = Budget.unlimited () in
  List.iter
    (fun tier ->
      match fst (Degrade.run_tier ~budget ~seed:1 tier model catalog graph) with
      | Error f ->
        Alcotest.failf "tier %s failed: %s" (Degrade.tier_name tier) (Degrade.failure_message f)
      | Ok (plan, cost) ->
        let name = Degrade.tier_name tier in
        Alcotest.(check bool) (name ^ " plan valid") true (validate_against catalog plan);
        check_float ~rel:1e-9 (name ^ " cost consistent") (Plan.cost model catalog graph plan) cost;
        Alcotest.(check bool)
          (Printf.sprintf "%s cost %g >= optimum %g" name cost optimum)
          true
          (cost >= optimum *. (1.0 -. 1e-9)))
    Degrade.default_cascade

let test_cascade_without_terminal_tier () =
  (* A custom cascade with no greedy terminal can fail; the failure still
     carries the full attempt log. *)
  let catalog, graph = topology_problem ~n:12 Topology.Chain in
  let budget = Budget.create ~max_table_bytes:1 () in
  match Guard.optimize ~budget ~cascade:[ Degrade.Exact; Degrade.Dpccp ] Cost_model.kdnl catalog
          graph
  with
  | Ok _ -> Alcotest.fail "expected failure: both tiers are memory-skipped"
  | Error (Guard.No_tier_produced attempts) ->
    Alcotest.(check int) "both attempts logged" 2 (List.length attempts)
  | Error e -> Alcotest.failf "unexpected error: %s" (Guard.error_message e)

(* ---- chaos ---- *)

let base_input ~n =
  let catalog = Catalog.of_cards (Array.init n (fun i -> 50.0 +. (31.0 *. float_of_int i))) in
  let graph = Topology.make Topology.Chain catalog in
  Chaos.input_of catalog graph

(* Structural [=] on corrupted inputs is wrong once a fault injects NaN
   (NaN <> NaN); compare through a NaN-tolerant float equality. *)
let float_eq a b = (Float.is_nan a && Float.is_nan b) || a = b

let input_eq (a : Chaos.input) (b : Chaos.input) =
  List.equal (fun (n1, c1) (n2, c2) -> String.equal n1 n2 && float_eq c1 c2) a.Chaos.relations
    b.Chaos.relations
  && List.equal
       (fun (i1, j1, s1) (i2, j2, s2) -> i1 = i2 && j1 = j2 && float_eq s1 s2)
       a.Chaos.edges b.Chaos.edges

let test_chaos_deterministic () =
  let input = base_input ~n:8 in
  let a, faults_a = Chaos.corrupt ~seed:42 input in
  let b, faults_b = Chaos.corrupt ~seed:42 input in
  Alcotest.(check bool) "same corruption" true (input_eq a b && faults_a = faults_b);
  Alcotest.(check bool) "at least one fault" true (List.length faults_a >= 1);
  let distinct =
    List.exists
      (fun seed -> not (input_eq (fst (Chaos.corrupt ~seed input)) a))
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  Alcotest.(check bool) "seeds explore different corruptions" true distinct

let test_scrambled_catalog_degrades_to_estimate_free () =
  (* The corruption Sanitize cannot honestly repair: every cardinality
     is garbage, so the substitutes are fabricated and the guard must
     bypass the cost-based tiers for the estimate-free one.  The plan is
     still valid, and its provenance says where it came from. *)
  let catalog, graph = topology_problem ~n:8 Topology.Chain in
  let input = Chaos.input_of catalog graph in
  let corrupted, faults = Chaos.scramble_catalog ~seed:7 input in
  Alcotest.(check bool) "scramble reports its fault" true (faults = [ Chaos.Catalog_scrambled ]);
  List.iter
    (fun (_, card) ->
      Alcotest.(check bool) "every cardinality is garbage" true
        (Float.is_nan card || not (Float.is_finite card) || card <= 0.0))
    corrupted.Chaos.relations;
  match
    Guard.optimize_input Cost_model.kdnl ~relations:corrupted.Chaos.relations
      ~edges:corrupted.Chaos.edges ()
  with
  | Error e -> Alcotest.failf "guard failed on scrambled catalog: %s" (Guard.error_message e)
  | Ok o ->
    Alcotest.(check string) "estimate-free tier wins" "simpli-squared"
      (Degrade.tier_name o.Guard.provenance.Degrade.winner);
    Alcotest.(check bool) "repairs are fabricated stats" true
      (Sanitize.fabricated_stats o.Guard.repairs);
    Alcotest.(check int) "one repair per relation" 8 (List.length o.Guard.repairs);
    Alcotest.(check bool) "plan is valid" true (validate_against o.Guard.catalog o.Guard.plan);
    (* No cost-based tier may appear in the attempt log: fabricated
       numbers make their costs meaningless. *)
    List.iter
      (fun a ->
        match a.Degrade.tier with
        | Degrade.Estimate_free | Degrade.Greedy -> ()
        | t -> Alcotest.failf "cost-based tier %s ran on fabricated stats" (Degrade.tier_name t))
      o.Guard.provenance.Degrade.attempts

(* The chaos contract, over 150 seeds: corrupt a problem, hand the raw
   statistics to the guard, and require either [Ok] with a plan that
   validates against the SANITIZED inputs at the advertised cost, or a
   typed error — never an exception. *)
let prop_chaos_never_breaks_guard =
  QCheck2.Test.make ~count:150 ~name:"guard survives chaos-corrupted inputs"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2 + Rng.int rng 7 in
      let input = base_input ~n in
      let corrupted, _faults = Chaos.corrupt ~seed ~faults:(1 + Rng.int rng 3) input in
      match
        Guard.optimize_input Cost_model.kdnl ~relations:corrupted.Chaos.relations
          ~edges:corrupted.Chaos.edges ()
      with
      | Error _ -> true
      | Ok o ->
        validate_against o.Guard.catalog o.Guard.plan
        && Blitz_util.Float_more.approx_equal ~rel:1e-6 o.Guard.cost
             (Plan.cost Cost_model.kdnl o.Guard.catalog o.Guard.graph o.Guard.plan)
      | exception e ->
        QCheck2.Test.fail_reportf "guard raised %s on seed %d" (Printexc.to_string e) seed)

let suite =
  [
    Alcotest.test_case "budget basics" `Quick test_budget_basics;
    Alcotest.test_case "lenient sanitization repairs" `Quick test_sanitize_lenient_repairs;
    Alcotest.test_case "strict sanitization rejects" `Quick test_sanitize_strict_rejects;
    Alcotest.test_case "all input defects reported" `Quick test_sanitize_collects_all_errors;
    Alcotest.test_case "lenient defaulting fabricates cardinalities" `Quick
      test_sanitize_defaults_cardinalities;
    Alcotest.test_case "deadline degrades to greedy with provenance" `Quick
      test_deadline_degrades_to_greedy;
    Alcotest.test_case "memory ceiling skips DP tiers" `Quick test_memory_cap_skips_to_hybrid;
    Alcotest.test_case "a session charges each DP tier what it draws" `Quick
      test_session_charges_what_tiers_draw;
    Alcotest.test_case "no budget: identical to blitzsplit" `Quick test_unbudgeted_matches_exact;
    QCheck_alcotest.to_alcotest prop_seeded_exact_tier;
    Alcotest.test_case "overflowing greedy: exact tier takes the plain pass" `Quick
      test_overflowing_greedy_takes_plain_pass;
    Alcotest.test_case "overflowing statistics degrade past dpccp" `Quick
      test_overflowing_stats_degrade_past_dpccp;
    Alcotest.test_case "every tier valid and bounded by the optimum" `Quick
      test_every_tier_valid_and_bounded;
    Alcotest.test_case "cascade without terminal tier fails loudly" `Quick
      test_cascade_without_terminal_tier;
    Alcotest.test_case "chaos is deterministic per seed" `Quick test_chaos_deterministic;
    Alcotest.test_case "scrambled catalog degrades to the estimate-free tier" `Quick
      test_scrambled_catalog_degrades_to_estimate_free;
    QCheck_alcotest.to_alcotest prop_chaos_never_breaks_guard;
    Alcotest.test_case "the exact tier's bound: source, provenance, trace" `Quick
      test_upper_bound_sources;
    Alcotest.test_case "multiway request refused before any tier" `Quick test_multiway_refused;
  ]
