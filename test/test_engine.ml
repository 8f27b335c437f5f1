(* Blitz_engine: the session/arena layer and the optimizer registry.

   The engine's core claim is that session reuse is unobservable in the
   results: any query run through a session's arena-pooled table and
   recycled counters yields bit-identical cost, plan and counter totals
   to a fresh-allocation run — for every registered optimizer, across
   arbitrary query sequences (the arena shrinking and growing between
   queries), and at every domain count.  Sessions default to the
   machine's cores, so queries at or above the rank-parallel crossover
   are checked through a default session against a one-domain one, and
   the session must still answer when the runtime refuses its domains.

   BLITZ_TEST_DOMAINS=N adds N to the domain axis, as in
   test_parallel.ml. *)

open Test_helpers
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Arena = Blitz_core.Arena
module Counters = Blitz_core.Counters
module Dp_table = Blitz_core.Dp_table
module Live_index = Blitz_core.Live_index
module Blitzsplit = Blitz_core.Blitzsplit
module Registry = Blitz_engine.Registry
module Engine = Blitz_engine.Engine
module Guard = Blitz_guard.Guard
module Workload = Blitz_workload.Workload
module B = Blitz_baselines

let domain_axis = List.sort_uniq compare ([ 1; 2; 4 ] @ env_domains)

let all_counters (c : Counters.t) =
  [
    c.Counters.subsets;
    c.Counters.loop_iters;
    c.Counters.operand_sums;
    c.Counters.dprime_evals;
    c.Counters.improvements;
    c.Counters.threshold_skips;
    c.Counters.infeasible;
    c.Counters.passes;
  ]

let counters_equal a b = all_counters a = all_counters b

let outcome_equal (a : Registry.outcome) (b : Registry.outcome) =
  compare a.Registry.cost b.Registry.cost = 0
  && (match (a.Registry.plan, b.Registry.plan) with
     | Some p, Some q -> Plan.equal p q
     | None, None -> true
     | _ -> false)
  && a.Registry.passes = b.Registry.passes
  && compare a.Registry.final_threshold b.Registry.final_threshold = 0
  && Option.equal counters_equal a.Registry.counters b.Registry.counters

(* {1 The property: session reuse is bit-identical to fresh runs} *)

(* Three problems per case, so within one session the arena grows and
   shrinks across queries, and every third problem drops the graph
   (pure Cartesian-product optimization — the no-pi_fan table path). *)
let sequence_gen =
  QCheck2.Gen.map
    (fun seeds -> List.map (fun seed -> (seed, seed mod 3 = 2)) seeds)
    (QCheck2.Gen.list_size (QCheck2.Gen.return 3) (QCheck2.Gen.int_bound 1_000_000))

let problem_of_seed (seed, product) =
  let rng = Blitz_util.Rng.create ~seed in
  let n = 2 + Blitz_util.Rng.int rng 6 in
  let catalog = random_catalog rng ~n ~lo:1.0 ~hi:1e4 in
  let graph =
    random_graph rng ~n ~edge_prob:(Blitz_util.Rng.float rng 1.0) ~sel_lo:1e-4 ~sel_hi:1.0
  in
  if product then Registry.problem catalog else Registry.problem ~graph catalog

let fresh_outcome ?threshold ~optimizer ~num_domains model p =
  with_pool ~num_domains (fun pool ->
      let o =
        Registry.optimize ~optimizer
          (Registry.ctx ~pool ?threshold ~counters:(Counters.create ()) model)
          p
      in
      { o with Registry.table = None })

(* Session outcomes alias the arena's counters; copy them out before
   the next query resets them. *)
let detach (o : Registry.outcome) =
  { o with Registry.table = None; counters = Option.map Counters.copy o.Registry.counters }

(* The threshold the cascade's exact tier passes: [Registry.upper_bound]. *)
let upper_threshold model p =
  Option.map
    (fun (b : Registry.bound) -> b.Registry.value)
    (Registry.upper_bound (Registry.heuristics model p))

(* The exact entry plain, through a batch, and seeded at the upper
   bound, one query at a time. *)
let test_session_bit_identical =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20 ~name:"session = fresh for exact/threshold at any width"
       sequence_gen (fun seeds ->
         let problems = List.map problem_of_seed seeds in
         let model = Cost_model.kdnl in
         List.for_all
           (fun num_domains ->
             List.for_all
               (fun seeded ->
                 let threshold p = if seeded then upper_threshold model p else None in
                 let fresh =
                   List.map
                     (fun p ->
                       fresh_outcome ?threshold:(threshold p) ~optimizer:"exact" ~num_domains
                         model p)
                     problems
                 in
                 let session_outcomes =
                   Engine.with_session ~model ~num_domains (fun session ->
                       if seeded then
                         List.map
                           (fun p -> detach (Engine.optimize ?threshold:(threshold p) session p))
                           problems
                       else Engine.optimize_many session (List.to_seq problems))
                 in
                 List.length fresh = List.length session_outcomes
                 && List.for_all2 outcome_equal fresh session_outcomes)
               [ false; true ])
           domain_axis))

let test_session_every_optimizer () =
  (* One-shot parity for every registry entry on a fixed 5-relation
     problem (small enough for the bruteforce oracle).  The session runs
     each optimizer twice so the second run exercises a warm arena. *)
  let catalog = random_catalog (Blitz_util.Rng.create ~seed:7) ~n:5 ~lo:1.0 ~hi:1e3 in
  (* A chain: a tree, so the tree-only entries participate too. *)
  let graph =
    Join_graph.of_edges ~n:5 [ (0, 1, 0.1); (1, 2, 0.05); (2, 3, 0.2); (3, 4, 0.01) ]
  in
  let prob = Registry.problem ~graph catalog in
  let model = Cost_model.kdnl in
  let is_tree = B.Ikkbz.is_tree graph in
  Engine.with_session ~model (fun session ->
      List.iter
        (fun (e : Registry.entry) ->
          match Registry.eligible e ~n:5 ~is_tree with
          | Error _ -> ()
          | Ok () ->
            let fresh = fresh_outcome ~optimizer:e.Registry.name ~num_domains:1 model prob in
            let warm =
              ignore (Engine.optimize ~optimizer:e.Registry.name session prob);
              let o = Engine.optimize ~optimizer:e.Registry.name session prob in
              { o with Registry.table = None; counters = Option.map Counters.copy o.Registry.counters }
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s: warm session = fresh" e.Registry.name)
              true (outcome_equal fresh warm))
        (Registry.all ()))

(* {1 Arena mechanics} *)

(* An arena hands its buffers out as the last pass left them, and a pass
   writes every slot it reads before reading it.  So every slot of a
   larger query's arena is poisoned with values a pass would act on if
   it read them — cost 0, cardinalities 1, [best_lhs] and list entries
   that are real subsets, index counts of 0 (every subset would scan
   nothing) — and then with NaN, and a smaller and an equal-size query
   must still give the fresh table's bits. *)
let poison_arena arena ~nan =
  let tbl = Arena.acquire arena 1 in
  let v x = if nan then Float.nan else x in
  let fill a x = Array.fill a 0 (Array.length a) x in
  fill tbl.Dp_table.cost (v 0.0);
  fill tbl.Dp_table.card (v 1.0);
  fill tbl.Dp_table.aux (v 1.0);
  fill tbl.Dp_table.pi_fan (v 0.5);
  fill tbl.Dp_table.best_lhs (if nan then 3 else 1);
  let idx = Arena.index arena in
  Bigarray.Array1.fill idx.Live_index.ids (Int32.of_int (if nan then 3 else 1));
  fill idx.Live_index.region 0;
  fill idx.Live_index.len 1;
  fill idx.Live_index.cum 0

let check_same_pass what (fresh : Blitzsplit.t) (warm : Blitzsplit.t) =
  let ft = fresh.Blitzsplit.table and wt = warm.Blitzsplit.table in
  let bits = Int64.bits_of_float in
  for s = 1 to Dp_table.size ft - 1 do
    if
      bits ft.Dp_table.cost.(s) <> bits wt.Dp_table.cost.(s)
      || bits ft.Dp_table.card.(s) <> bits wt.Dp_table.card.(s)
      || ft.Dp_table.best_lhs.(s) <> wt.Dp_table.best_lhs.(s)
    then Alcotest.failf "%s: subset %d differs from the fresh table" what s
  done;
  Alcotest.(check bool)
    (what ^ ": plan") true
    (Option.equal Plan.equal (Blitzsplit.best_plan fresh) (Blitzsplit.best_plan warm));
  Alcotest.(check (list int))
    (what ^ ": counters")
    (all_counters fresh.Blitzsplit.counters)
    (all_counters warm.Blitzsplit.counters)

let test_warm_pass_reads_no_stale_slot () =
  let problem ~topology ~model n =
    Workload.problem (Workload.spec ~n ~topology ~model ~mean_card:100.0 ~variability:0.5)
  in
  (* Stars (hub last) take the live-operand scan when seeded. *)
  let cells =
    [
      ("star/ksm", Topology.Star, Cost_model.sort_merge);
      ("star/k0", Topology.Star, Cost_model.naive);
      ("clique/kdnl", Topology.Clique, Cost_model.kdnl);
    ]
  in
  let widths = None :: List.map Option.some domain_axis in
  let arena = Arena.create () in
  List.iter
    (fun (name, topology, model) ->
      List.iter
        (fun n ->
          let catalog, graph = problem ~topology ~model n in
          let bound =
            Option.map
              (fun b -> b.Registry.value)
              (Registry.upper_bound (Registry.heuristics model (Registry.problem ~graph catalog)))
          in
          List.iter
            (fun (product, threshold) ->
              let pass ?pool ?arena () =
                let counters = Counters.create () in
                if product then
                  Blitzsplit.optimize_product ?pool ?arena ~counters ?threshold model catalog
                else
                  Blitzsplit.optimize_join ?pool ?arena ~counters ?threshold model catalog graph
              in
              let fresh = pass () in
              List.iter
                (fun width ->
                  List.iter
                    (fun nan ->
                      (* A larger query sizes the arena first, so the
                         smaller one's slots lie inside its buffers. *)
                      let big_catalog, big_graph = problem ~topology ~model 9 in
                      ignore (Blitzsplit.optimize_join ~arena model big_catalog big_graph);
                      poison_arena arena ~nan;
                      let what =
                        Printf.sprintf "%s n=%d %s%s %s %s" name n
                          (if product then "product" else "join")
                          (if Option.is_some threshold then " seeded" else "")
                          (match width with
                          | None -> "inline"
                          | Some d -> Printf.sprintf "pool of %d" d)
                          (if nan then "NaN" else "poison")
                      in
                      let warm =
                        match width with
                        | None -> pass ~arena ()
                        | Some num_domains -> with_pool ~num_domains (fun pool -> pass ~pool ~arena ())
                      in
                      check_same_pass what fresh warm)
                    [ false; true ])
                widths)
            [ (false, None); (false, bound); (true, None); (true, bound) ])
        [ 7; 9 ])
    cells

(* The pass polls before it writes the table, so an interrupt that fires
   at its first call leaves a warm n = 16 arena as it found it, beyond
   at most one stride of 64 subsets. *)
let test_interrupt_polls_before_writing () =
  let n = 16 in
  let catalog, graph =
    Workload.problem
      (Workload.spec ~n ~topology:Topology.Clique ~model:Cost_model.kdnl ~mean_card:100.0
         ~variability:0.5)
  in
  let arena = Arena.create () in
  let threshold =
    Option.map
      (fun b -> b.Registry.value)
      (Registry.upper_bound (Registry.heuristics Cost_model.kdnl (Registry.problem ~graph catalog)))
  in
  ignore (Blitzsplit.optimize_join ~arena ?threshold Cost_model.kdnl catalog graph);
  List.iter
    (fun width ->
      poison_arena arena ~nan:false;
      let pass ?pool () =
        Blitzsplit.optimize_join ?pool ~arena ~interrupt:(fun () -> true) Cost_model.kdnl catalog
          graph
      in
      Alcotest.check_raises "interrupted" Blitzsplit.Interrupted (fun () ->
          ignore
            (match width with
            | None -> pass ()
            | Some num_domains -> with_pool ~num_domains (fun pool -> pass ~pool ())));
      let tbl = Arena.acquire arena n in
      let changed = ref 0 in
      for s = 3 to (1 lsl n) - 1 do
        if
          s land (s - 1) <> 0
          && (tbl.Dp_table.cost.(s) <> 0.0
             || tbl.Dp_table.card.(s) <> 1.0
             || tbl.Dp_table.aux.(s) <> 1.0
             || tbl.Dp_table.pi_fan.(s) <> 0.5
             || tbl.Dp_table.best_lhs.(s) <> 1)
        then incr changed
      done;
      if !changed > 64 then
        Alcotest.failf "%d subsets' slots written before the first poll (%s)" !changed
          (match width with None -> "inline" | Some d -> Printf.sprintf "pool of %d" d))
    [ None; Some 2 ]

let test_arena_growth_accounting () =
  let arena = Arena.create () in
  Alcotest.(check int) "empty arena holds no bytes" 0 (Arena.resident_bytes arena);
  let _ = Arena.acquire arena 4 in
  let after4 = Arena.resident_bytes arena in
  Alcotest.(check int) "resident = estimate at capacity"
    (Dp_table.estimate_bytes ~n:4 ()) after4;
  (* A smaller acquire must not shrink the high-water mark... *)
  let _ = Arena.acquire arena 3 in
  Alcotest.(check int) "high-water kept on small acquire" after4 (Arena.resident_bytes arena);
  (* ...and bytes_after quotes the would-be footprint before growing,
     the subset lists of a blitzsplit pass included. *)
  let seeded n = Dp_table.estimate_bytes ~n () + Live_index.estimate_bytes ~n in
  Alcotest.(check int) "bytes_after quotes growth" (seeded 10) (Arena.bytes_after arena ~n:10 ());
  Alcotest.(check int) "bytes_after quotes current capacity for small n"
    (Dp_table.estimate_bytes ~n:4 () + Live_index.estimate_bytes ~n:2)
    (Arena.bytes_after arena ~n:2 ());
  let _ = Arena.acquire arena 10 in
  Alcotest.(check int) "grown" (Dp_table.estimate_bytes ~n:10 ()) (Arena.resident_bytes arena);
  Alcotest.(check int) "three acquires" 3 (Arena.acquires arena);
  Alcotest.(check int) "two sizings (initial + growth)" 2 (Arena.grows arena);
  (* A pass takes the lists beside the table; a later one reuses
     both. *)
  let catalog = Catalog.uniform ~n:10 ~card:100.0 in
  let seeded_pass () =
    ignore (Blitzsplit.optimize_product ~arena ~threshold:1e30 Cost_model.naive catalog)
  in
  seeded_pass ();
  Alcotest.(check int) "resident after a seeded pass" (seeded 10) (Arena.resident_bytes arena);
  seeded_pass ();
  Alcotest.(check int) "reused" (seeded 10) (Arena.resident_bytes arena);
  Alcotest.(check int) "bytes_after matches the resident footprint" (seeded 10)
    (Arena.bytes_after arena ~n:10 ());
  Arena.clear arena;
  Alcotest.(check int) "cleared" 0 (Arena.resident_bytes arena)

let test_estimate_bytes_saturates () =
  Alcotest.(check int) "n=50 saturates" max_int (Dp_table.estimate_bytes ~n:50 ());
  Alcotest.(check int) "40 B/slot with fan" (40 * 1024) (Dp_table.estimate_bytes ~n:10 ());
  Alcotest.(check int) "32 B/slot without fan" (32 * 1024)
    (Dp_table.estimate_bytes ~with_pi_fan:false ~n:10 ())

(* {1 Batch API} *)

let test_optimize_many_matches_sequential () =
  let model = Cost_model.kdnl in
  let problems = List.map problem_of_seed [ (100, false); (101, true); (102, false) ] in
  Engine.with_session ~model (fun session ->
      let batch = Engine.optimize_many session (List.to_seq problems) in
      let sequential =
        (* Detach each outcome as it is captured: session outcomes alias
           the arena's counters, which the next query resets. *)
        List.map
          (fun p ->
            let o = Engine.optimize session p in
            { o with Registry.table = None; counters = Option.map Counters.copy o.Registry.counters })
          problems
      in
      Alcotest.(check int) "all completed" (List.length problems) (List.length batch);
      List.iter2
        (fun b s ->
          Alcotest.(check bool) "batch outcome = sequential outcome" true (outcome_equal b s))
        batch sequential;
      List.iter
        (fun (o : Registry.outcome) ->
          Alcotest.(check bool) "batch outcomes are detached" true (o.Registry.table = None))
        batch)

let test_optimize_many_interrupt_prefix () =
  let model = Cost_model.kdnl in
  let p1 = problem_of_seed (200, false) in
  let p2 = problem_of_seed (201, false) in
  (* The interrupt is probed every 64 subsets, so the aborted query
     needs a large enough n for the probe to fire at all. *)
  let p3 =
    let rng = Blitz_util.Rng.create ~seed:202 in
    let catalog = random_catalog rng ~n:10 ~lo:1.0 ~hi:1e4 in
    let graph = random_graph rng ~n:10 ~edge_prob:0.5 ~sel_lo:1e-4 ~sel_hi:1.0 in
    Registry.problem ~graph catalog
  in
  let fire = ref false in
  (* The flag flips when the batch sequence yields the third problem, so
     the interrupt (probed inside the DP) aborts query 3 mid-run. *)
  let problems () =
    Seq.Cons
      ( p1,
        fun () ->
          Seq.Cons
            ( p2,
              fun () ->
                fire := true;
                Seq.Cons (p3, Seq.empty) ) )
  in
  Engine.with_session ~model (fun session ->
      let batch = Engine.optimize_many ~interrupt:(fun () -> !fire) session problems in
      Alcotest.(check int) "completed prefix returned" 2 (List.length batch);
      let fresh1 = fresh_outcome ~optimizer:"exact" ~num_domains:1 model p1 in
      Alcotest.(check bool) "prefix in order and intact" true
        (outcome_equal fresh1 (List.hd batch)))

let test_session_close () =
  let session = Engine.create () in
  let p = problem_of_seed (300, false) in
  ignore (Engine.optimize session p);
  Engine.close session;
  Alcotest.check_raises "closed session rejects queries"
    (Invalid_argument "Engine.optimize: session is closed") (fun () ->
      ignore (Engine.optimize session p))

(* {1 Default width: the machine's cores, from the crossover up} *)

let crossover = Engine.default_crossover_n

(* The paper's generated problems, as the benchmark's large cells. *)
let appendix_spec ?(topology = Topology.Chain) ?(model = Cost_model.kdnl) ?(mean_card = 100.0)
    ?(variability = 1.0 /. 3.0) n =
  Workload.spec ~n ~topology ~model ~mean_card ~variability

let registry_problem spec =
  let catalog, graph = Workload.problem spec in
  Registry.problem ~graph catalog

let test_default_width () =
  let s = Engine.create () in
  Alcotest.(check int) "a default session runs on the recommended domain count"
    (Engine.recommended_domains ())
    (Engine.num_domains s);
  Engine.close s

let guard_optimize session spec =
  let catalog, graph = Workload.problem spec in
  match Guard.optimize ~session spec.Workload.model catalog graph with
  | Ok o -> o
  | Error e -> Alcotest.fail (Guard.error_message e)

let test_pool_spawns_at_crossover () =
  (* Counted in runtime domain slots: each session's pool holds
     [num_domains - 1] of them from its first query at the crossover. *)
  let free = free_domain_slots () in
  let below = appendix_spec ~topology:Topology.Clique (crossover - 1) in
  let at = appendix_spec crossover in
  Engine.with_session (fun s ->
      Engine.with_session (fun g ->
          let workers = Engine.num_domains s - 1 in
          ignore (Engine.optimize s (registry_problem below));
          ignore (guard_optimize g below);
          Alcotest.(check int) "no domain spawned below the crossover" free
            (free_domain_slots ());
          ignore (Engine.optimize s (registry_problem at));
          Alcotest.(check int) "Engine.optimize spawns the pool at the crossover"
            (free - workers) (free_domain_slots ());
          ignore (guard_optimize g at);
          Alcotest.(check int) "Guard.optimize ~session spawns the pool at the crossover"
            (free - (2 * workers))
            (free_domain_slots ())));
  Alcotest.(check int) "close joins the pools" free (free_domain_slots ())

let guard_equal (a : Guard.outcome) (b : Guard.outcome) =
  compare a.Guard.cost b.Guard.cost = 0
  && Plan.equal a.Guard.plan b.Guard.plan
  && a.Guard.provenance.Blitz_guard.Degrade.winner = b.Guard.provenance.Blitz_guard.Degrade.winner
  && a.Guard.from_cache = b.Guard.from_cache

(* Everything a session answers for [spec]: the exact entry plain and
   seeded at the upper bound through [Engine.optimize], then
   [Guard.optimize ~session]. *)
let session_answers ?num_domains spec =
  let problem = registry_problem spec in
  let model = spec.Workload.model in
  Engine.with_session ~model ?num_domains (fun s ->
      let engine =
        List.map
          (fun threshold -> detach (Engine.optimize ?threshold s problem))
          [ None; upper_threshold model problem ]
      in
      (engine, guard_optimize s spec))

let answers_equal (e1, g1) (e2, g2) = List.for_all2 outcome_equal e1 e2 && guard_equal g1 g2

let test_session_falls_back_at_domain_cap () =
  (* With every domain slot held, a multi-domain session cannot spawn
     its pool: the query runs sequentially, with the same bits. *)
  let spec = appendix_spec ~topology:Topology.Star (crossover + 1) in
  let sequential = session_answers ~num_domains:1 spec in
  with_held_domains (fun _ ->
      Alcotest.(check int) "every slot held" 0 (free_domain_slots ());
      List.iter
        (fun num_domains ->
          Alcotest.(check bool) "answered, bit-identical to one domain" true
            (answers_equal sequential (session_answers ?num_domains spec)))
        [ None; Some 2 ])

let large_spec_gen =
  QCheck2.Gen.(
    map
      (fun (n, model, topology, mean_card, variability) ->
        appendix_spec ~topology ~model ~mean_card ~variability n)
      (tup5 (oneofl [ crossover; crossover + 1 ])
         (oneofl [ Cost_model.naive; Cost_model.sort_merge; Cost_model.kdnl ])
         (oneofl [ Topology.Chain; Topology.Star; Topology.Cycle_plus 2; Topology.Clique ])
         (oneofl [ 100.0; 2000.0 ])
         (oneofl [ 0.0; 1.0 /. 3.0 ])))

let test_default_session_bit_identical =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:16
       ~name:"default session = one-domain session from the crossover up"
       ~print:Workload.describe large_spec_gen (fun spec ->
         let sequential = session_answers ~num_domains:1 spec in
         List.for_all
           (fun num_domains -> answers_equal sequential (session_answers ?num_domains spec))
           (None :: List.map Option.some env_domains)))

(* {1 Registry metadata} *)

let test_registry_metadata () =
  let names = Registry.names () in
  Alcotest.(check bool) "names unique" true
    (List.length names = List.length (List.sort_uniq compare names));
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true (Option.is_some (Registry.find name)))
    [ "exact"; "hybrid"; "ikkbz"; "greedy"; "bruteforce" ];
  let caps name = (Registry.find_exn name).Registry.caps in
  Alcotest.(check bool) "ikkbz is tree-only" true (caps "ikkbz").Registry.tree_only;
  Alcotest.(check bool) "exact is exact" true (caps "exact").Registry.exact;
  Alcotest.(check (option int))
    "bruteforce capped at its oracle limit"
    (Some B.Bruteforce.max_relations)
    (caps "bruteforce").Registry.max_n;
  (match (caps "exact").Registry.table_bytes with
  | Some f ->
    Alcotest.(check int) "exact table estimate, the subset lists included"
      (Dp_table.estimate_bytes ~n:12 () + Live_index.estimate_bytes ~n:12)
      (f ~n:12)
  | None -> Alcotest.fail "exact must advertise a table footprint");
  Alcotest.(check bool) "eligible rejects oversized n" true
    (Result.is_error
       (Registry.eligible (Registry.find_exn "exact") ~n:(Dp_table.max_relations + 1) ~is_tree:false));
  Alcotest.(check bool) "eligible rejects non-tree for ikkbz" true
    (Result.is_error (Registry.eligible (Registry.find_exn "ikkbz") ~n:5 ~is_tree:false));
  (match Registry.find "no-such-optimizer" with
  | Some _ -> Alcotest.fail "found a ghost"
  | None -> ());
  Alcotest.(check bool) "find_exn raises on unknown" true
    (try
       ignore (Registry.find_exn "no-such-optimizer");
       false
     with Invalid_argument _ -> true);
  let names = Registry.names () in
  Alcotest.(check int) "names are distinct" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* Past the DP table's relation cap, every entry eligibility admits
   answers; one that builds a table there must be refused upfront. *)
let test_eligible_past_the_table_cap () =
  let n = Dp_table.max_relations + 1 in
  let catalog, graph =
    Workload.problem
      (Workload.spec ~n ~topology:Topology.Chain ~model:Cost_model.kdnl ~mean_card:100.0
         ~variability:0.5)
  in
  let prob = Registry.problem ~graph catalog in
  Engine.with_session ~num_domains:1 (fun s ->
      List.iter
        (fun (e : Registry.entry) ->
          match
            Registry.eligible e ~connected:(Join_graph.is_connected graph) ~n
              ~is_tree:(B.Ikkbz.is_tree graph)
          with
          | Error _ -> ()
          | Ok () ->
            let o = Engine.optimize ~optimizer:e.Registry.name s prob in
            Alcotest.(check bool) (e.Registry.name ^ " returns a plan") true
              (Option.is_some o.Registry.plan))
        (Registry.all ()))

let suite =
  [
    Alcotest.test_case "every optimizer: warm session = fresh" `Quick test_session_every_optimizer;
    Alcotest.test_case "warm pass reads no stale slot" `Quick test_warm_pass_reads_no_stale_slot;
    Alcotest.test_case "interrupt polls before the table" `Quick
      test_interrupt_polls_before_writing;
    Alcotest.test_case "arena growth accounting" `Quick test_arena_growth_accounting;
    Alcotest.test_case "estimate_bytes" `Quick test_estimate_bytes_saturates;
    Alcotest.test_case "optimize_many = sequential optimizes" `Quick
      test_optimize_many_matches_sequential;
    Alcotest.test_case "optimize_many returns interrupt prefix" `Quick
      test_optimize_many_interrupt_prefix;
    Alcotest.test_case "closed session rejects queries" `Quick test_session_close;
    Alcotest.test_case "registry metadata" `Quick test_registry_metadata;
    Alcotest.test_case "eligible entries answer past the table cap" `Quick
      test_eligible_past_the_table_cap;
    Alcotest.test_case "default session width" `Quick test_default_width;
    Alcotest.test_case "session pool spawns at the crossover" `Quick
      test_pool_spawns_at_crossover;
    Alcotest.test_case "session falls back at the domain cap" `Quick
      test_session_falls_back_at_domain_cap;
    test_session_bit_identical;
    test_default_session_bit_identical;
  ]
