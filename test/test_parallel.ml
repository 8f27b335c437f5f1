(* Blitzsplit on a domain pool: a pass whose split loops run rank by
   rank on a pool must be bit-identical to the same pass on the calling
   domain (cost, plan, counters), the domain pool must
   balance/propagate/survive, and a deadline probe must abort a pooled
   run within one chunk of expiring.

   BLITZ_TEST_DOMAINS=N adds N to every domain-count axis, so CI can run
   the whole file at a controlled width on multi-core hosts. *)

open Test_helpers
module Blitzsplit = Blitz_core.Blitzsplit
module Threshold = Blitz_core.Threshold
module Counters = Blitz_core.Counters
module Dp_table = Blitz_core.Dp_table
module Pool = Blitz_parallel.Pool
module Budget = Blitz_guard.Budget

let check_float = Test_helpers.check_float

let domain_axis = List.sort_uniq compare ([ 1; 2; 4 ] @ env_domains)

(* {1 Pool} *)

let test_pool_runs_every_chunk_once () =
  List.iter
    (fun num_domains ->
      with_pool ~num_domains (fun pool ->
          Alcotest.(check int) "num_domains" num_domains (Pool.num_domains pool);
          (* Two consecutive jobs on one pool: reuse must work, and each
             chunk must be executed exactly once (per-worker tallies
             summed at the barrier). *)
          List.iter
            (fun chunks ->
              let hits = Array.make chunks 0 in
              let claimed = Array.make num_domains 0 in
              Pool.run pool ~chunks (fun ~worker c ->
                  hits.(c) <- hits.(c) + 1;
                  claimed.(worker) <- claimed.(worker) + 1);
              Array.iteri
                (fun c h -> Alcotest.(check int) (Printf.sprintf "chunk %d once" c) 1 h)
                hits;
              Alcotest.(check int)
                "claims sum to chunk count" chunks
                (Array.fold_left ( + ) 0 claimed))
            [ 37; 1; 0 ];
          (* Back-to-back jobs smaller than a wake-up: a worker that
             wakes after the caller claimed the last chunk sits the job
             out, and must neither run a chunk twice nor carry one into
             the next job. *)
          for j = 1 to 500 do
            let chunks = j mod 4 in
            let hits = Array.make chunks 0 in
            Pool.run pool ~chunks (fun ~worker:_ c -> hits.(c) <- hits.(c) + 1);
            if Array.exists (fun h -> h <> 1) hits then
              Alcotest.failf "job %d: a chunk of %d did not run exactly once" j chunks
          done))
    domain_axis

exception Boom

let test_pool_propagates_exception_and_survives () =
  with_pool ~num_domains:2 (fun pool ->
      Alcotest.check_raises "job exception re-raised" Boom (fun () ->
          Pool.run pool ~chunks:16 (fun ~worker:_ c -> if c = 5 then raise Boom));
      (* The pool must be quiescent and reusable after a poisoned job. *)
      let total = Atomic.make 0 in
      Pool.run pool ~chunks:16 (fun ~worker:_ c -> ignore (Atomic.fetch_and_add total c));
      Alcotest.(check int) "reusable after exception" 120 (Atomic.get total))

let test_pool_create_failure_releases_workers () =
  (* Hold a pool that leaves [k] domain slots free, then ask for k + 1
     workers: the runtime refuses the last one, and the k already
     spawned must be joined, or the pool of k workers that follows could
     not spawn. *)
  let k = 3 in
  let free = free_domain_slots () in
  with_pool ~num_domains:(free - k + 1) (fun _ ->
      Alcotest.(check int) "k slots left free" k (free_domain_slots ());
      (match Pool.create ~num_domains:(k + 2) with
      | p ->
        Pool.shutdown p;
        Alcotest.fail "a pool past the domain cap spawned"
      | exception Failure _ -> ());
      with_pool ~num_domains:(k + 1) (fun pool ->
          let total = Atomic.make 0 in
          Pool.run pool ~chunks:16 (fun ~worker:_ c -> ignore (Atomic.fetch_and_add total c));
          Alcotest.(check int) "a pool of k workers still spawns and runs" 120 (Atomic.get total)))

(* {1 On a pool = on the calling domain, bit for bit} *)

let check_identical ~msg seq par =
  Alcotest.(check bool)
    (msg ^ ": identical cost") true
    (compare (Blitzsplit.best_cost seq) (Blitzsplit.best_cost par) = 0);
  Alcotest.(check bool)
    (msg ^ ": identical plan") true
    (Plan.equal (Blitzsplit.best_plan_exn seq) (Blitzsplit.best_plan_exn par))

let prop_parallel_matches_sequential =
  QCheck2.Test.make ~count:60
    ~name:"parallel = sequential: cost, plan and counters (n <= 12)"
    ~print:problem_print (problem_gen ~max_n:12)
    (fun { catalog; graph; model; _ } ->
      let seq_ctr = Counters.create () in
      let seq = Blitzsplit.optimize_join ~counters:seq_ctr model catalog graph in
      List.iter
        (fun d ->
          let par_ctr = Counters.create () in
          let par =
            with_pool ~num_domains:d (fun pool ->
                Blitzsplit.optimize_join ~pool ~counters:par_ctr model catalog graph)
          in
          let msg what = Printf.sprintf "domains=%d %s" d what in
          if compare (Blitzsplit.best_cost seq) (Blitzsplit.best_cost par) <> 0 then
            QCheck2.Test.fail_reportf "%s: cost %.17g vs sequential %.17g" (msg "cost")
              (Blitzsplit.best_cost par) (Blitzsplit.best_cost seq);
          if not (Plan.equal (Blitzsplit.best_plan_exn seq) (Blitzsplit.best_plan_exn par))
          then QCheck2.Test.fail_reportf "%s differs" (msg "plan");
          (* Counters are sums of per-subset events, so the merged
             per-domain totals must equal the sequential counts exactly
             (passes counts the optimization pass in both). *)
          List.iter
            (fun (name, f) ->
              if f par_ctr <> f seq_ctr then
                QCheck2.Test.fail_reportf "%s: %d vs sequential %d" (msg name) (f par_ctr)
                  (f seq_ctr))
            [
              ("subsets", fun (c : Counters.t) -> c.Counters.subsets);
              ("loop_iters", fun c -> c.Counters.loop_iters);
              ("improvements", fun c -> c.Counters.improvements);
              ("passes", fun c -> c.Counters.passes);
            ])
        domain_axis;
      true)

let test_parallel_product_identical () =
  let catalog = random_catalog (Rng.create ~seed:7) ~n:11 ~lo:1.0 ~hi:1e4 in
  let seq = Blitzsplit.optimize_product Cost_model.naive catalog in
  List.iter
    (fun d ->
      let par =
        with_pool ~num_domains:d (fun pool ->
            Blitzsplit.optimize_product ~pool Cost_model.naive catalog)
      in
      check_identical ~msg:(Printf.sprintf "product domains=%d" d) seq par;
      Alcotest.(check bool)
        "product table has no fan column" false
        (Dp_table.has_pi_fan par.Blitzsplit.table))
    domain_axis

let test_parallel_product_equals_empty_graph_join () =
  let catalog = random_catalog (Rng.create ~seed:11) ~n:9 ~lo:1.0 ~hi:1e3 in
  let product, join =
    with_pool ~num_domains:2 (fun pool ->
        ( Blitzsplit.optimize_product ~pool Cost_model.naive catalog,
          Blitzsplit.optimize_join ~pool Cost_model.naive catalog (Join_graph.of_edges ~n:9 []) ))
  in
  check_identical ~msg:"product vs empty-graph join" product join

let test_parallel_threshold_multipass () =
  (* Threshold.drive over rank-parallel passes on one pool (what the
     registry's exact entry runs under a threshold on a session's pool)
     must reproduce the sequential multi-pass outcome exactly (Table 1's
     optimum 241000, reached on the same pass). *)
  let drive ?pool () =
    Threshold.drive ~growth:10.0 ~threshold:100.0 (fun ~counters ~threshold ->
        Blitzsplit.optimize_product ?pool ~counters ~threshold Cost_model.naive abcd_catalog)
  in
  let seq = drive () in
  List.iter
    (fun d ->
      let par = with_pool ~num_domains:d (fun pool -> drive ~pool ()) in
      Alcotest.(check int) "same pass count" seq.Threshold.passes par.Threshold.passes;
      check_float "same final threshold" seq.Threshold.final_threshold
        par.Threshold.final_threshold;
      check_identical
        ~msg:(Printf.sprintf "threshold domains=%d" d)
        seq.Threshold.result par.Threshold.result)
    domain_axis

(* {1 Deadline: domain-safe latch and one-chunk abort} *)

let test_budget_latch_is_sticky_until_rearmed () =
  let budget = Budget.create ~deadline_ms:0.01 () in
  let deadline = Unix.gettimeofday () +. 0.01 in
  while Unix.gettimeofday () < deadline do () done;
  Alcotest.(check bool) "expired trips the latch" true (Budget.expired budget);
  Alcotest.(check bool) "stays tripped" true (Budget.expired budget);
  Alcotest.(check bool) "probe closure agrees" true (Budget.interrupt budget ());
  Budget.start budget;
  Alcotest.(check bool) "start clears the latch" false (Budget.expired budget)

let test_parallel_deadline_aborts_within_one_chunk () =
  (* An already-expired budget must stop a parallel optimization at the
     first probe: every domain polls each 64 subsets and the coordinator
     polls at each rank barrier, so for n = 13 (8178 non-singleton
     subsets) only a handful of subsets may be processed before
     Interrupted surfaces. *)
  let catalog = random_catalog (Rng.create ~seed:3) ~n:13 ~lo:1.0 ~hi:1e4 in
  let budget = Budget.create ~deadline_ms:0.01 () in
  let deadline = Unix.gettimeofday () +. 0.01 in
  while Unix.gettimeofday () < deadline do () done;
  Alcotest.(check bool) "budget already expired" true (Budget.expired budget);
  List.iter
    (fun d ->
      let ctr = Counters.create () in
      Alcotest.check_raises
        (Printf.sprintf "domains=%d raises Interrupted" d)
        Blitzsplit.Interrupted
        (fun () ->
          with_pool ~num_domains:d (fun pool ->
              ignore
                (Blitzsplit.optimize_product ~pool ~counters:ctr
                   ~interrupt:(Budget.interrupt budget) Cost_model.naive catalog)));
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d stopped within one chunk (%d subsets)" d
           ctr.Counters.subsets)
        true (ctr.Counters.subsets < 1000))
    domain_axis

(* {1 Lazy fan column} *)

let test_table_bytes_reflects_fan_column () =
  Alcotest.(check int) "40 bytes/slot with fan" (40 * 1024) (Dp_table.estimate_bytes ~n:10 ());
  Alcotest.(check int)
    "32 bytes/slot without fan" (32 * 1024)
    (Dp_table.estimate_bytes ~with_pi_fan:false ~n:10 ());
  let t = Dp_table.create ~with_pi_fan:false 4 in
  Alcotest.(check bool) "fanless table" false (Dp_table.has_pi_fan t);
  Alcotest.(check bool) "default table has fan" true
    (Dp_table.has_pi_fan (Dp_table.create 4))

let suite =
  [
    Alcotest.test_case "pool runs every chunk exactly once" `Quick test_pool_runs_every_chunk_once;
    Alcotest.test_case "pool creation past the domain cap holds no domain" `Quick
      test_pool_create_failure_releases_workers;
    Alcotest.test_case "pool propagates exceptions and survives" `Quick
      test_pool_propagates_exception_and_survives;
    QCheck_alcotest.to_alcotest prop_parallel_matches_sequential;
    Alcotest.test_case "parallel product identical, fanless table" `Quick
      test_parallel_product_identical;
    Alcotest.test_case "parallel product = empty-graph join" `Quick
      test_parallel_product_equals_empty_graph_join;
    Alcotest.test_case "parallel threshold multi-pass identical" `Quick
      test_parallel_threshold_multipass;
    Alcotest.test_case "budget latch sticky until rearmed" `Quick
      test_budget_latch_is_sticky_until_rearmed;
    Alcotest.test_case "deadline aborts parallel run within one chunk" `Quick
      test_parallel_deadline_aborts_within_one_chunk;
    Alcotest.test_case "table_bytes reflects lazy fan column" `Quick
      test_table_bytes_reflects_fan_column;
  ]
