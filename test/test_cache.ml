(* Blitz_cache: rename-invariant fingerprints, the sharded LRU plan
   cache, and its engine/guard integration.

   The load-bearing property is the QCheck round-trip: for a random
   problem, a random relation permutation, any cacheable optimizer and
   any domain count, submitting the permuted problem to a session whose
   cache holds the original must return a hit whose cost is bit-for-bit
   the cached run's cost and whose plan is the cached plan under the
   permutation.  The unit tests pin down the mechanics that property
   rides on: fingerprint sensitivity (what must differ), the LRU's
   byte budget and eviction order, the shape tier's warm-start seeds,
   and the guard's clean-path-only participation.

   BLITZ_TEST_DOMAINS=N adds N to the domain axis, as in
   test_parallel.ml. *)

open Test_helpers
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Counters = Blitz_core.Counters
module Registry = Blitz_engine.Registry
module Engine = Blitz_engine.Engine
module Fingerprint = Blitz_cache.Fingerprint
module Plan_cache = Blitz_cache.Plan_cache
module Guard = Blitz_guard.Guard
module Degrade = Blitz_guard.Degrade
module Budget = Blitz_guard.Budget
module Rng = Blitz_util.Rng

let domain_axis = List.sort_uniq compare ([ 1; 2; 4 ] @ env_domains)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let fingerprint ~model catalog graph =
  let s = Fingerprint.create_scratch () in
  Fingerprint.compute s ~model_digest:(Fingerprint.model_digest model) catalog graph;
  s

(* Relation [i] of the original becomes relation [perm.(i)]. *)
let permute_problem perm (p : Registry.problem) =
  let n = Catalog.n p.Registry.catalog in
  let cards = Array.make n 0.0 in
  for i = 0 to n - 1 do
    cards.(perm.(i)) <- Catalog.card p.Registry.catalog i
  done;
  let catalog = Catalog.of_cards cards in
  match p.Registry.graph with
  | None -> Registry.problem catalog
  | Some g ->
    let edges =
      List.map
        (fun (i, j, s) ->
          let i' = perm.(i) and j' = perm.(j) in
          (min i' j', max i' j', s))
        (Join_graph.edges g)
    in
    Registry.problem ~graph:(Join_graph.of_edges ~n edges) catalog

let random_perm rng n =
  let perm = Array.init n (fun i -> i) in
  Rng.shuffle rng perm;
  perm

let plan_of (o : Registry.outcome) = Option.get o.Registry.plan

(* {1 Fingerprint sensitivity} *)

let base_catalog = Catalog.of_cards [| 10.0; 250.0; 33.0; 78.0; 1200.0; 5.0 |]

let base_graph =
  Join_graph.of_edges ~n:6 [ (0, 1, 0.1); (1, 2, 0.05); (2, 3, 0.2); (3, 4, 0.01); (1, 4, 0.5) ]

let test_fingerprint_sensitivity () =
  let model = Cost_model.kdnl in
  let s0 = fingerprint ~model base_catalog (Some base_graph) in
  (* Renaming: identical full hash, identical shape hash. *)
  let perm = [| 3; 0; 5; 2; 4; 1 |] in
  let p' = permute_problem perm (Registry.problem ~graph:base_graph base_catalog) in
  let s1 = fingerprint ~model p'.Registry.catalog p'.Registry.graph in
  Alcotest.(check bool) "renaming preserves hash" true (Fingerprint.hash s0 = Fingerprint.hash s1);
  Alcotest.(check bool) "renaming preserves shape hash" true
    (Fingerprint.shape_hash s0 = Fingerprint.shape_hash s1);
  Alcotest.(check bool) "renamed scratch matches frozen original" true
    (Fingerprint.matches s1 (Fingerprint.freeze s0));
  (* A cardinality change: new exact fingerprint, same shape. *)
  let cards = Catalog.cards base_catalog in
  cards.(2) <- cards.(2) *. 1.5;
  let s2 = fingerprint ~model (Catalog.of_cards cards) (Some base_graph) in
  Alcotest.(check bool) "card change breaks hash" false (Fingerprint.hash s0 = Fingerprint.hash s2);
  Alcotest.(check bool) "card change keeps shape hash" true
    (Fingerprint.shape_hash s0 = Fingerprint.shape_hash s2);
  Alcotest.(check bool) "card change defeats matches" false
    (Fingerprint.matches s2 (Fingerprint.freeze s0));
  (* A selectivity change: both tiers miss. *)
  let g2 =
    Join_graph.of_edges ~n:6 [ (0, 1, 0.1); (1, 2, 0.06); (2, 3, 0.2); (3, 4, 0.01); (1, 4, 0.5) ]
  in
  let s3 = fingerprint ~model base_catalog (Some g2) in
  Alcotest.(check bool) "sel change breaks hash" false (Fingerprint.hash s0 = Fingerprint.hash s3);
  Alcotest.(check bool) "sel change breaks shape hash" false
    (Fingerprint.shape_hash s0 = Fingerprint.shape_hash s3);
  (* A different cost model: different digest, different fingerprint. *)
  let s4 = fingerprint ~model:Cost_model.naive base_catalog (Some base_graph) in
  Alcotest.(check bool) "model change breaks hash" false
    (Fingerprint.hash s0 = Fingerprint.hash s4);
  Alcotest.(check bool) "model change defeats matches" false
    (Fingerprint.matches s4 (Fingerprint.freeze s0))

let test_fingerprint_qcheck_invariance =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"fingerprint invariant under random renamings"
       ~print:problem_print (problem_gen ~max_n:10) (fun p ->
         let prob = Registry.problem ~graph:p.graph p.catalog in
         let rng = Rng.create ~seed:(p.seed + 77) in
         let n = Catalog.n p.catalog in
         let perm = random_perm rng n in
         let prob' = permute_problem perm prob in
         let s0 = fingerprint ~model:p.model p.catalog (Some p.graph) in
         let s1 = fingerprint ~model:p.model prob'.Registry.catalog prob'.Registry.graph in
         Fingerprint.hash s0 = Fingerprint.hash s1
         && Fingerprint.shape_hash s0 = Fingerprint.shape_hash s1
         && Fingerprint.matches s1 (Fingerprint.freeze s0)
         && Fingerprint.matches s0 (Fingerprint.freeze s1)))

let test_canonize_rebase_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"rebase . canonize = identity on plans"
       ~print:problem_print (problem_gen ~max_n:10) (fun p ->
         let s = fingerprint ~model:p.model p.catalog (Some p.graph) in
         let plan =
           plan_of
             (Registry.optimize
                (Registry.ctx ~counters:(Counters.create ()) p.model)
                (Registry.problem ~graph:p.graph p.catalog))
         in
         Plan.equal plan (Fingerprint.rebase_plan s (Fingerprint.canonize_plan s plan))))

(* {1 The tentpole property: cached hits under renaming, across
   optimizers and domain counts} *)

let cacheable_optimizers = [ "exact"; "thresholded"; "dpsize" ]

let test_rebased_hits_bit_identical =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:12 ~name:"renamed resubmission = rebased hit, bit-identical"
       ~print:problem_print (problem_gen ~max_n:8) (fun p ->
         let prob = Registry.problem ~graph:p.graph p.catalog in
         let rng = Rng.create ~seed:(p.seed + 13) in
         let n = Catalog.n p.catalog in
         let perm = random_perm rng n in
         let prob' = permute_problem perm prob in
         List.for_all
           (fun num_domains ->
             List.for_all
               (fun optimizer ->
                 let cache = Plan_cache.create () in
                 Engine.with_session ~model:p.model ~num_domains ~cache (fun session ->
                     let cold = Engine.optimize ~optimizer session prob in
                     let cold_plan = plan_of cold in
                     let before = Plan_cache.stats cache in
                     let hit = Engine.optimize ~optimizer session prob' in
                     let after = Plan_cache.stats cache in
                     after.Plan_cache.hits = before.Plan_cache.hits + 1
                     && same_float cold.Registry.cost hit.Registry.cost
                     && Plan.equal
                          (Plan.normalize (Plan.map_leaves (fun i -> perm.(i)) cold_plan))
                          (Plan.normalize (plan_of hit))
                     (* The rebased tree must price identically under the
                        renamed instance's own statistics. *)
                     && Blitz_util.Float_more.approx_equal ~rel:1e-9 hit.Registry.cost
                          (Plan.cost p.model prob'.Registry.catalog
                             (Option.value ~default:(Join_graph.no_predicates ~n)
                                prob'.Registry.graph)
                             (plan_of hit))))
               cacheable_optimizers)
           domain_axis))

let test_shared_cache_across_sessions () =
  (* A cache outlives and spans sessions: populate at one domain count,
     hit at another (the rank-parallel optimizer is bit-identical, so
     the transfer is sound). *)
  let model = Cost_model.kdnl in
  let prob = Registry.problem ~graph:base_graph base_catalog in
  let cache = Plan_cache.create () in
  let cold =
    Engine.with_session ~model ~num_domains:1 ~cache (fun s -> Engine.optimize s prob)
  in
  let hit =
    Engine.with_session ~model ~num_domains:2 ~cache (fun s -> Engine.optimize s prob)
  in
  Alcotest.(check bool) "cost bit-identical across sessions" true
    (same_float cold.Registry.cost hit.Registry.cost);
  Alcotest.(check bool) "plan identical" true (Plan.equal (plan_of cold) (plan_of hit));
  Alcotest.(check int) "one insertion" 1 (Plan_cache.stats cache).Plan_cache.insertions;
  Alcotest.(check int) "one hit" 1 (Plan_cache.stats cache).Plan_cache.hits

let test_inexact_optimizers_bypass () =
  (* The greedy heuristic's registry entry does not promise exactness,
     so its runs must neither populate nor consult the cache. *)
  let model = Cost_model.kdnl in
  let prob = Registry.problem ~graph:base_graph base_catalog in
  let cache = Plan_cache.create () in
  Engine.with_session ~model ~cache (fun s ->
      ignore (Engine.optimize ~optimizer:"greedy" s prob);
      ignore (Engine.optimize ~optimizer:"greedy" s prob));
  let st = Plan_cache.stats cache in
  Alcotest.(check int) "no insertions" 0 st.Plan_cache.insertions;
  Alcotest.(check int) "no lookups" 0 (st.Plan_cache.hits + st.Plan_cache.misses)

let test_explicit_threshold_bypasses () =
  (* An explicit threshold makes the outcome caller-dependent: never
     cached, never answered from the cache. *)
  let model = Cost_model.kdnl in
  let prob = Registry.problem ~graph:base_graph base_catalog in
  let cache = Plan_cache.create () in
  Engine.with_session ~model ~cache (fun s ->
      ignore (Engine.optimize ~optimizer:"thresholded" ~threshold:1e12 s prob);
      ignore (Engine.optimize ~optimizer:"thresholded" ~threshold:1e12 s prob));
  let st = Plan_cache.stats cache in
  Alcotest.(check int) "no insertions" 0 st.Plan_cache.insertions;
  Alcotest.(check int) "no lookups" 0 (st.Plan_cache.hits + st.Plan_cache.misses)

(* {1 LRU mechanics} *)

(* Distinct single-shard problems: index [k] scales the cardinalities,
   so every problem has its own exact fingerprint but shares nothing
   with the LRU bookkeeping under test. *)
let lru_problem k =
  let cards = Array.init 6 (fun i -> float_of_int ((k * 17) + (i * 3) + 2)) in
  (Catalog.of_cards cards, base_graph)

let balanced_plan n =
  let rec build lo hi =
    if lo = hi then Plan.Leaf lo else Plan.Join (build lo ((lo + hi) / 2), build (((lo + hi) / 2) + 1) hi)
  in
  build 0 (n - 1)

let test_lru_eviction () =
  let model = Cost_model.kdnl in
  let cache = Plan_cache.create ~shards:1 ~max_bytes:2048 () in
  let store k =
    let catalog, graph = lru_problem k in
    let s = fingerprint ~model catalog (Some graph) in
    Plan_cache.store cache s ~optimizer:"exact" ~plan:(balanced_plan 6) ~cost:(float_of_int k)
      ~passes:1 ~final_threshold:infinity
  in
  let find k =
    let catalog, graph = lru_problem k in
    let s = fingerprint ~model catalog (Some graph) in
    Plan_cache.find cache s ~optimizer:"exact"
  in
  for k = 0 to 39 do
    store k
  done;
  let st = Plan_cache.stats cache in
  Alcotest.(check bool) "stayed under the byte budget" true (st.Plan_cache.bytes <= 2048);
  Alcotest.(check bool) "evictions happened" true (st.Plan_cache.evictions > 0);
  Alcotest.(check int) "entries = insertions - evictions" st.Plan_cache.entries
    (st.Plan_cache.insertions - st.Plan_cache.evictions);
  Alcotest.(check bool) "oldest entry evicted" true (find 0 = None);
  (match find 39 with
  | Some h -> Alcotest.(check (float 0.0)) "newest entry resident" 39.0 h.Plan_cache.cost
  | None -> Alcotest.fail "newest entry missing");
  Plan_cache.clear cache;
  let st = Plan_cache.stats cache in
  Alcotest.(check int) "clear drops entries" 0 st.Plan_cache.entries;
  Alcotest.(check int) "clear drops bytes" 0 st.Plan_cache.bytes

let test_lru_recency_refresh () =
  (* Touching an old entry protects it: evictions take the true LRU. *)
  let model = Cost_model.kdnl in
  let cache = Plan_cache.create ~shards:1 ~max_bytes:2048 () in
  let scratch_of k =
    let catalog, graph = lru_problem k in
    fingerprint ~model catalog (Some graph)
  in
  let store k =
    Plan_cache.store cache (scratch_of k) ~optimizer:"exact" ~plan:(balanced_plan 6)
      ~cost:(float_of_int k) ~passes:1 ~final_threshold:infinity
  in
  store 0;
  store 1;
  (* Fill until the next insertion must evict; keep 0 warm throughout. *)
  let k = ref 2 in
  while (Plan_cache.stats cache).Plan_cache.evictions = 0 do
    ignore (Plan_cache.find cache (scratch_of 0) ~optimizer:"exact");
    store !k;
    incr k
  done;
  Alcotest.(check bool) "refreshed entry survives" true
    (Plan_cache.find cache (scratch_of 0) ~optimizer:"exact" <> None);
  Alcotest.(check bool) "stale entry evicted" true
    (Plan_cache.find cache (scratch_of 1) ~optimizer:"exact" = None)

let test_duplicate_store_is_refresh () =
  let model = Cost_model.kdnl in
  let cache = Plan_cache.create () in
  let s = fingerprint ~model base_catalog (Some base_graph) in
  let store () =
    Plan_cache.store cache s ~optimizer:"exact" ~plan:(balanced_plan 6) ~cost:1.0 ~passes:1
      ~final_threshold:infinity
  in
  store ();
  store ();
  let st = Plan_cache.stats cache in
  Alcotest.(check int) "one insertion" 1 st.Plan_cache.insertions;
  Alcotest.(check int) "one entry" 1 st.Plan_cache.entries

let test_optimizer_keys_are_distinct () =
  (* The same problem cached under "exact" must not answer a
     "thresholded" lookup: per-optimizer bit-identity. *)
  let model = Cost_model.kdnl in
  let cache = Plan_cache.create () in
  let s = fingerprint ~model base_catalog (Some base_graph) in
  Plan_cache.store cache s ~optimizer:"exact" ~plan:(balanced_plan 6) ~cost:1.0 ~passes:1
    ~final_threshold:infinity;
  Alcotest.(check bool) "exact finds it" true
    (Plan_cache.find cache s ~optimizer:"exact" <> None);
  Alcotest.(check bool) "thresholded does not" true
    (Plan_cache.find cache s ~optimizer:"thresholded" = None)

(* {1 The shape tier} *)

let test_shape_threshold () =
  let model = Cost_model.kdnl in
  let cache = Plan_cache.create () in
  let s = fingerprint ~model base_catalog (Some base_graph) in
  Alcotest.(check bool) "empty cache has no seed" true (Plan_cache.shape_threshold cache s = None);
  Plan_cache.store cache s ~optimizer:"thresholded" ~plan:(balanced_plan 6) ~cost:42.0 ~passes:1
    ~final_threshold:infinity;
  (* Same selectivity structure, different cardinalities: exact miss,
     shape hit, seed = best cost x warm_slack. *)
  let cards = Array.map (fun c -> c *. 1.03) (Catalog.cards base_catalog) in
  let s' = fingerprint ~model (Catalog.of_cards cards) (Some base_graph) in
  Alcotest.(check bool) "exact tier misses" true
    (Plan_cache.find cache s' ~optimizer:"thresholded" = None);
  (match Plan_cache.shape_threshold cache s' with
  | Some seed ->
    Alcotest.(check bool) "seed = cost x slack" true
      (same_float seed (42.0 *. Plan_cache.warm_slack cache))
  | None -> Alcotest.fail "shape tier missed");
  Alcotest.(check int) "shape hit counted" 1 (Plan_cache.stats cache).Plan_cache.shape_hits

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let test_engine_warm_start () =
  (* Through the engine: a thresholded run on a shape-hit miss is
     warm-started from the banded ensemble (the stored plan re-costed
     under the new statistics bounds the first pass), notes it, and
     still returns the bit-identical optimum (the Section 6.4
     escalation-plus-rescue contract). *)
  let model = Cost_model.kdnl in
  let rng = Rng.create ~seed:99 in
  let catalog = random_catalog rng ~n:8 ~lo:10.0 ~hi:1e4 in
  let graph = random_graph rng ~n:8 ~edge_prob:0.5 ~sel_lo:1e-3 ~sel_hi:1.0 in
  let base = Registry.problem ~graph catalog in
  let jittered =
    Registry.problem ~graph
      (Catalog.of_cards (Array.map (fun c -> c *. 1.02) (Catalog.cards catalog)))
  in
  let cache = Plan_cache.create () in
  let warm =
    Engine.with_session ~model ~cache (fun s ->
        ignore (Engine.optimize ~optimizer:"thresholded" s base);
        Engine.optimize ~optimizer:"thresholded" s jittered)
  in
  let cold = Engine.with_session ~model (fun s -> Engine.optimize ~optimizer:"thresholded" s jittered) in
  (match warm.Registry.note with
  | Some note ->
    Alcotest.(check bool) "outcome notes the banded warm-start" true
      (contains note "plan cache: banded warm-start")
  | None -> Alcotest.fail "warm-started run carries no note");
  Alcotest.(check int) "one band seed served" 1 (Plan_cache.stats cache).Plan_cache.band_hits;
  Alcotest.(check bool) "warm-started cost bit-identical to cold" true
    (same_float warm.Registry.cost cold.Registry.cost);
  Alcotest.(check bool) "warm-started plan identical to cold" true
    (Plan.equal (plan_of warm) (plan_of cold))

(* {1 The banded ensemble} *)

let test_banded_seed_roundtrip () =
  (* Store under one catalog, seed a shape-equal problem with different
     cardinalities: the ensemble returns a structurally valid plan for
     the caller's labeling plus the STORING cost — which the consumer
     must re-cost, and the engine does. *)
  let model = Cost_model.kdnl in
  let cache = Plan_cache.create () in
  let s = fingerprint ~model base_catalog (Some base_graph) in
  Alcotest.(check bool) "empty ensemble has no seed" true (Plan_cache.shape_seed cache s = None);
  let stored_plan = balanced_plan 6 in
  Plan_cache.store cache s ~optimizer:"thresholded"
    ~plan:stored_plan ~cost:42.0 ~passes:1 ~final_threshold:infinity;
  let cards = Array.map (fun c -> c *. 1.7) (Catalog.cards base_catalog) in
  let jittered = Catalog.of_cards cards in
  let s' = fingerprint ~model jittered (Some base_graph) in
  (match Plan_cache.shape_seed cache s' with
  | None -> Alcotest.fail "banded ensemble missed a shape-equal problem"
  | Some (plan, cost) ->
    Alcotest.(check bool) "stored cost returned verbatim" true (same_float cost 42.0);
    Alcotest.(check bool) "seed plan valid for the caller" true
      (match Plan.validate ~n:6 plan with Ok () -> true | Error _ -> false);
    (* Same scratch labeling as the store: the seed is the stored plan. *)
    (match Plan_cache.shape_seed cache s with
    | Some (p, _) -> Alcotest.(check bool) "identity rebase returns the plan" true (Plan.equal p stored_plan)
    | None -> Alcotest.fail "identity lookup missed"));
  Alcotest.(check int) "band hits counted" 2 (Plan_cache.stats cache).Plan_cache.band_hits;
  Plan_cache.clear cache;
  Alcotest.(check bool) "clear drops the ensemble" true (Plan_cache.shape_seed cache s = None)

let test_banded_keeps_cheapest_per_band () =
  (* Two stores of the same shape and band: the ensemble keeps the
     cheaper member. *)
  let model = Cost_model.kdnl in
  let cache = Plan_cache.create () in
  let s = fingerprint ~model base_catalog (Some base_graph) in
  Plan_cache.store cache s ~optimizer:"exact" ~plan:(balanced_plan 6) ~cost:50.0 ~passes:1
    ~final_threshold:infinity;
  let cards = Array.map (fun c -> c *. 3.1) (Catalog.cards base_catalog) in
  let s' = fingerprint ~model (Catalog.of_cards cards) (Some base_graph) in
  Plan_cache.store cache s' ~optimizer:"exact" ~plan:(balanced_plan 6) ~cost:20.0 ~passes:1
    ~final_threshold:infinity;
  (match Plan_cache.shape_seed cache s with
  | Some (_, cost) -> Alcotest.(check bool) "cheaper member wins" true (same_float cost 20.0)
  | None -> Alcotest.fail "ensemble missed");
  (* A worse later store must not displace it. *)
  Plan_cache.store cache s ~optimizer:"dpsize" ~plan:(balanced_plan 6) ~cost:90.0 ~passes:1
    ~final_threshold:infinity;
  match Plan_cache.shape_seed cache s with
  | Some (_, cost) -> Alcotest.(check bool) "worse store ignored" true (same_float cost 20.0)
  | None -> Alcotest.fail "ensemble missed after refresh"

let test_banded_warm_start_qcheck =
  (* The headline safety property, ISSUE acceptance: a banded warm
     start never changes the answer.  Random problem, random
     cardinality jitter (shape-preserving), any domain count: the
     warm-started thresholded run is bit-identical to a cold session
     on the jittered problem. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:15 ~name:"banded warm-starts are bit-identical to cold runs"
       ~print:problem_print (problem_gen ~max_n:8) (fun p ->
         let rng = Rng.create ~seed:(p.seed + 31) in
         let jitter = Array.map (fun c -> c *. Rng.log_uniform rng ~lo:0.2 ~hi:5.0)
             (Catalog.cards p.catalog) in
         let base = Registry.problem ~graph:p.graph p.catalog in
         let jittered = Registry.problem ~graph:p.graph (Catalog.of_cards jitter) in
         List.for_all
           (fun num_domains ->
             let cache = Plan_cache.create () in
             let warm =
               Engine.with_session ~model:p.model ~num_domains ~cache (fun s ->
                   ignore (Engine.optimize ~optimizer:"thresholded" s base);
                   Engine.optimize ~optimizer:"thresholded" s jittered)
             in
             let cold =
               Engine.with_session ~model:p.model ~num_domains (fun s ->
                   Engine.optimize ~optimizer:"thresholded" s jittered)
             in
             same_float warm.Registry.cost cold.Registry.cost
             && Plan.equal (plan_of warm) (plan_of cold))
           domain_axis))

(* {1 Guard and budget integration} *)

let test_guard_serves_from_cache () =
  let model = Cost_model.kdnl in
  let cache = Plan_cache.create () in
  Engine.with_session ~model ~cache (fun session ->
      let first = Result.get_ok (Guard.optimize ~session model base_catalog base_graph) in
      let second = Result.get_ok (Guard.optimize ~session model base_catalog base_graph) in
      Alcotest.(check bool) "first run computed" false first.Guard.from_cache;
      Alcotest.(check bool) "second run served from cache" true second.Guard.from_cache;
      Alcotest.(check bool) "same cost" true (same_float first.Guard.cost second.Guard.cost);
      Alcotest.(check bool) "same plan" true (Plan.equal first.Guard.plan second.Guard.plan))

let test_guard_bypasses_on_repairs () =
  (* A repaired input (selectivity clamped to 1) is not the query the
     caller submitted: the guard must neither store nor serve it. *)
  let model = Cost_model.kdnl in
  let cache = Plan_cache.create () in
  let relations = [ ("A", 10.0); ("B", 20.0); ("C", 30.0) ] in
  let edges = [ (0, 1, 0.5); (1, 2, 1.5) ] in
  Engine.with_session ~model ~cache (fun session ->
      let run () =
        Result.get_ok (Guard.optimize_input ~session model ~relations ~edges ())
      in
      let first = run () in
      let second = run () in
      Alcotest.(check bool) "input was repaired" true (first.Guard.repairs <> []);
      Alcotest.(check bool) "first not from cache" false first.Guard.from_cache;
      Alcotest.(check bool) "second not from cache" false second.Guard.from_cache);
  let st = Plan_cache.stats cache in
  Alcotest.(check int) "nothing stored" 0 st.Plan_cache.insertions;
  Alcotest.(check int) "nothing looked up" 0 (st.Plan_cache.hits + st.Plan_cache.misses)

let test_eligibility_charges_cache_bytes () =
  (* Cache residency shares the table memory ceiling: the same budget
     that admits the exact tier with an empty cache refuses it when the
     cache already holds the headroom. *)
  let n = Catalog.n base_catalog in
  let table = Budget.table_bytes ~n () in
  let budget = Budget.create ~max_table_bytes:(table + 1024) () in
  Budget.start budget;
  Alcotest.(check bool) "fits with empty cache" true
    (Degrade.eligibility ~budget Degrade.Exact base_catalog base_graph = None);
  (match Degrade.eligibility ~cache_bytes:4096 ~budget Degrade.Exact base_catalog base_graph with
  | Some (Degrade.Memory _) -> ()
  | Some _ -> Alcotest.fail "expected a memory skip"
  | None -> Alcotest.fail "cache bytes were not charged against the ceiling")

let test_sessions_without_cache_opt_out () =
  let model = Cost_model.kdnl in
  Engine.with_session ~model (fun s ->
      Alcotest.(check bool) "no cache attached" true (Engine.cache s = None);
      Alcotest.(check bool) "cache_find is None" true
        (Engine.cache_find s ~optimizer:"exact" (Registry.problem ~graph:base_graph base_catalog)
        = None))

let suite =
  [
    Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
    test_fingerprint_qcheck_invariance;
    test_canonize_rebase_roundtrip;
    test_rebased_hits_bit_identical;
    Alcotest.test_case "cache shared across sessions" `Quick test_shared_cache_across_sessions;
    Alcotest.test_case "inexact optimizers bypass" `Quick test_inexact_optimizers_bypass;
    Alcotest.test_case "explicit threshold bypasses" `Quick test_explicit_threshold_bypasses;
    Alcotest.test_case "LRU eviction under byte budget" `Quick test_lru_eviction;
    Alcotest.test_case "LRU recency refresh" `Quick test_lru_recency_refresh;
    Alcotest.test_case "duplicate store refreshes" `Quick test_duplicate_store_is_refresh;
    Alcotest.test_case "per-optimizer keys" `Quick test_optimizer_keys_are_distinct;
    Alcotest.test_case "shape-tier threshold seeds" `Quick test_shape_threshold;
    Alcotest.test_case "engine warm-start" `Quick test_engine_warm_start;
    Alcotest.test_case "banded ensemble round-trip" `Quick test_banded_seed_roundtrip;
    Alcotest.test_case "banded ensemble keeps the cheapest member" `Quick
      test_banded_keeps_cheapest_per_band;
    test_banded_warm_start_qcheck;
    Alcotest.test_case "guard serves clean-path hits" `Quick test_guard_serves_from_cache;
    Alcotest.test_case "guard bypasses on repairs" `Quick test_guard_bypasses_on_repairs;
    Alcotest.test_case "eligibility charges cache bytes" `Quick test_eligibility_charges_cache_bytes;
    Alcotest.test_case "cacheless sessions opt out" `Quick test_sessions_without_cache_opt_out;
  ]
