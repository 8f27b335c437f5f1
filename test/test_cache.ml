(* Blitz_cache: rename-invariant fingerprints, the sharded LRU plan
   cache, and its engine/guard integration.

   The load-bearing property is the QCheck round-trip: for a random
   problem, a random relation permutation, any cacheable optimizer and
   any domain count, submitting the permuted problem to a session whose
   cache holds the original must return a hit whose cost is bit-for-bit
   the cached run's cost and whose plan is the cached plan under the
   permutation.  The unit tests pin down the mechanics that property
   rides on: fingerprint sensitivity (what must differ), the LRU's
   byte budget and eviction order, a live heap that the byte budget
   bounds, and the guard's clean-path-only, one-lookup participation.

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
  (* Renaming: identical hash. *)
  let perm = [| 3; 0; 5; 2; 4; 1 |] in
  let p' = permute_problem perm (Registry.problem ~graph:base_graph base_catalog) in
  let s1 = fingerprint ~model p'.Registry.catalog p'.Registry.graph in
  Alcotest.(check bool) "renaming preserves hash" true (Fingerprint.hash s0 = Fingerprint.hash s1);
  Alcotest.(check bool) "renamed scratch matches frozen original" true
    (Fingerprint.matches s1 (Fingerprint.freeze s0));
  (* A cardinality change: new fingerprint. *)
  let cards = Catalog.cards base_catalog in
  cards.(2) <- cards.(2) *. 1.5;
  let s2 = fingerprint ~model (Catalog.of_cards cards) (Some base_graph) in
  Alcotest.(check bool) "card change breaks hash" false (Fingerprint.hash s0 = Fingerprint.hash s2);
  Alcotest.(check bool) "card change defeats matches" false
    (Fingerprint.matches s2 (Fingerprint.freeze s0));
  (* A selectivity change: new fingerprint. *)
  let g2 =
    Join_graph.of_edges ~n:6 [ (0, 1, 0.1); (1, 2, 0.06); (2, 3, 0.2); (3, 4, 0.01); (1, 4, 0.5) ]
  in
  let s3 = fingerprint ~model base_catalog (Some g2) in
  Alcotest.(check bool) "sel change breaks hash" false (Fingerprint.hash s0 = Fingerprint.hash s3);
  Alcotest.(check bool) "sel change defeats matches" false
    (Fingerprint.matches s3 (Fingerprint.freeze s0));
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

(* {1 The fingerprint against its oracle}

   Fingerprint_reference is the labeling as it was computed with its
   refinement rounds run on every call.  The inputs are built to tie on
   (cardinality, degree), where the rounds decide the order: v = 0
   workloads, cards from {10, 100}, uniform stars, cycles and cliques,
   random graphs with isolated relations, and no graph at all. *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology

type tied = {
  label : string;
  tied_catalog : Catalog.t;
  tied_graph : Join_graph.t option;
  tseed : int;
}

let tied_print t = Printf.sprintf "%s n=%d seed=%d" t.label (Catalog.n t.tied_catalog) t.tseed

let ten_or_hundred rng n = Array.init n (fun _ -> if Rng.bool rng then 10.0 else 100.0)

let tied_problem seed =
  let rng = Rng.create ~seed in
  let n = 1 + Rng.int rng 20 in
  let make label cards graph =
    { label; tied_catalog = Catalog.of_cards cards; tied_graph = graph; tseed = seed }
  in
  let uniform_edges topology =
    let sel = Rng.pick rng [| 0.1; 0.5; 1.0 |] in
    let edges = List.map (fun (i, j) -> (i, j, sel)) (Topology.edge_list topology ~n) in
    Some (Join_graph.of_edges ~n edges)
  in
  match Rng.int rng 5 with
  | 0 when n >= 2 ->
    let topology =
      Rng.pick rng
        (Array.of_list
           ([ Topology.Chain; Topology.Star; Topology.Clique; Topology.grid ~n ]
           @ List.filter_map
               (fun k -> if n >= (2 * k) + 3 then Some (Topology.Cycle_plus k) else None)
               [ 0; 1; 3 ]))
    in
    let spec =
      Workload.spec ~n ~topology ~model:Cost_model.kdnl
        ~mean_card:(Rng.pick rng (Workload.mean_card_axis ()))
        ~variability:0.0
    in
    let catalog, graph = Workload.problem spec in
    let label = "v=0 " ^ Topology.name topology in
    { label; tied_catalog = catalog; tied_graph = Some graph; tseed = seed }
  | 1 when n >= 3 ->
    let topology = Rng.pick rng [| Topology.Star; Topology.Cycle_plus 0; Topology.Clique |] in
    make ("uniform " ^ Topology.name topology) (Array.make n 100.0) (uniform_edges topology)
  | 2 ->
    (* Random edges among the relations that are not isolated. *)
    let isolated = Array.init n (fun _ -> Rng.int rng 3 = 0) in
    let edges = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if (not isolated.(i)) && (not isolated.(j)) && Rng.bool rng then
          edges := (i, j, Rng.pick rng [| 0.1; 0.01; 0.5 |]) :: !edges
      done
    done;
    make "random with isolated" (ten_or_hundred rng n) (Some (Join_graph.of_edges ~n !edges))
  | 3 -> make "no graph" (ten_or_hundred rng n) None
  | _ -> make "predicate-free" (ten_or_hundred rng n) (Some (Join_graph.no_predicates ~n))

let left_deep n =
  let rec build acc i = if i = n then acc else build (Plan.Join (acc, Plan.Leaf i)) (i + 1) in
  build (Plan.Leaf 0) 1

let test_fingerprint_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name:"fingerprint = its oracle on tied problems, relabelled"
       ~print:tied_print
       QCheck2.Gen.(map tied_problem (int_bound 1_000_000))
       (fun t ->
         let n = Catalog.n t.tied_catalog in
         let prob = Registry.problem ?graph:t.tied_graph t.tied_catalog in
         let prob' = permute_problem (random_perm (Rng.create ~seed:(t.tseed + 5)) n) prob in
         let digest = Fingerprint.model_digest Cost_model.kdnl in
         let plan = left_deep n in
         let both (p : Registry.problem) =
           let s = Fingerprint.create_scratch () in
           Fingerprint.compute s ~model_digest:digest p.Registry.catalog p.Registry.graph;
           let r =
             Fingerprint_reference.compute ~model_digest:digest p.Registry.catalog p.Registry.graph
           in
           if Fingerprint.hash s <> Fingerprint_reference.hash r then
             QCheck2.Test.fail_report "hash differs from the oracle's";
           if
             not
               (Plan.equal (Fingerprint.canonize_plan s plan)
                  (Fingerprint_reference.canonize_plan r plan))
           then QCheck2.Test.fail_report "canonical permutation differs from the oracle's";
           (s, r)
         in
         let s0, r0 = both prob and s1, r1 = both prob' in
         (* A relabelling hits exactly when the oracle's canonical forms
            agree: always where tied relations are interchangeable, not
            always where a tie is broken by index (mirror-image ends of
            a chain). *)
         Fingerprint.matches s1 (Fingerprint.freeze s0) = Fingerprint_reference.same_form r1 r0
         && Fingerprint.matches s0 (Fingerprint.freeze s1) = Fingerprint_reference.same_form r0 r1
         && Fingerprint.matches s0 (Fingerprint.freeze s0)))

let test_fingerprint_no_allocation () =
  (* Warm: the scratch has grown to n = 14 on the first call. *)
  let cells =
    List.concat_map
      (fun topology ->
        List.map
          (fun variability ->
            Workload.spec ~n:14 ~topology ~model:Cost_model.kdnl ~mean_card:100.0 ~variability)
          [ 0.0; 1.0 /. 3.0 ])
      [ Topology.Chain; Topology.Clique ]
  in
  List.iter
    (fun spec ->
      let catalog, graph = Workload.problem spec in
      let graph = Some graph in
      let s = Fingerprint.create_scratch () in
      let digest = Fingerprint.model_digest spec.Workload.model in
      Fingerprint.compute s ~model_digest:digest catalog graph;
      let w0 = Gc.minor_words () in
      let w1 = Gc.minor_words () in
      Fingerprint.compute s ~model_digest:digest catalog graph;
      let w2 = Gc.minor_words () in
      (* [w1 - w0] is what a reading itself costs. *)
      let words = w2 -. w1 -. (w1 -. w0) in
      if words <> 0.0 then
        Alcotest.failf "%s: a warm compute allocated %.0f words" (Workload.describe spec) words)
    cells

(* {1 The tentpole property: cached hits under renaming, across
   optimizers and domain counts} *)

let cacheable_optimizers = [ "exact"; "dpsize" ]

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
      ignore (Engine.optimize ~threshold:1e12 s prob);
      ignore (Engine.optimize ~threshold:1e12 s prob));
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
      ~cost:(float_of_int k)
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
    Plan_cache.store cache s ~optimizer:"exact" ~plan:(balanced_plan 6) ~cost:1.0
  in
  store ();
  store ();
  let st = Plan_cache.stats cache in
  Alcotest.(check int) "one insertion" 1 st.Plan_cache.insertions;
  Alcotest.(check int) "one entry" 1 st.Plan_cache.entries

let test_optimizer_keys_are_distinct () =
  (* The same problem cached under "exact" must not answer a "dpsize"
     lookup, though both are cacheable: per-optimizer bit-identity. *)
  let model = Cost_model.kdnl in
  let cache = Plan_cache.create () in
  let s = fingerprint ~model base_catalog (Some base_graph) in
  Plan_cache.store cache s ~optimizer:"exact" ~plan:(balanced_plan 6) ~cost:1.0;
  Alcotest.(check bool) "exact finds it" true
    (Plan_cache.find cache s ~optimizer:"exact" <> None);
  Alcotest.(check bool) "dpsize does not" true
    (Plan_cache.find cache s ~optimizer:"dpsize" = None)

(* {1 The byte budget bounds the live heap} *)

(* Problem [k] has its own cardinalities and its own selectivities, so
   no two share any part of a fingerprint. *)
let distinct_problem k =
  let x = float_of_int k in
  let cards = Array.init 6 (fun i -> 10.0 +. x +. float_of_int (i * 7)) in
  let graph =
    Join_graph.of_edges ~n:6
      (List.mapi
         (fun e (i, j, sel) -> (i, j, sel *. (1.0 +. (x *. 1e-6) +. (float_of_int e *. 1e-9))))
         (Join_graph.edges base_graph))
  in
  (Catalog.of_cards cards, graph)

let test_live_heap_flat () =
  (* Everything a store keeps is an entry the byte budget charges, so
     once the LRU is full the live heap stops growing with the number
     of stores. *)
  let model = Cost_model.kdnl in
  let max_bytes = 64 * 1024 in
  let cache = Plan_cache.create ~max_bytes () in
  let s = Fingerprint.create_scratch () in
  let digest = Fingerprint.model_digest model in
  let plan = balanced_plan 6 in
  let store_range lo hi =
    for k = lo to hi - 1 do
      let catalog, graph = distinct_problem k in
      Fingerprint.compute s ~model_digest:digest catalog (Some graph);
      Plan_cache.store cache s ~optimizer:"exact" ~plan ~cost:(float_of_int (k + 1))
    done;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let at_2k = store_range 0 2000 in
  let at_4k = store_range 2000 4000 in
  let st = Plan_cache.stats cache in
  Alcotest.(check int) "every store inserted" 4000 st.Plan_cache.insertions;
  Alcotest.(check bool) "resident bytes within the budget" true
    (Plan_cache.resident_bytes cache <= max_bytes);
  Alcotest.(check bool)
    (Printf.sprintf "live heap flat from 2k to 4k stores (%d -> %d words)" at_2k at_4k)
    true
    (at_4k - at_2k <= 4096)

(* {1 Guard and budget integration} *)

let test_guard_miss_is_one_lookup () =
  (* A guarded miss looks the problem up once, under "exact", and a
     resubmission hits that same entry. *)
  let model = Cost_model.kdnl in
  let cache = Plan_cache.create () in
  Engine.with_session ~model ~cache (fun session ->
      let before = Plan_cache.stats cache in
      ignore (Result.get_ok (Guard.optimize ~session model base_catalog base_graph));
      let after = Plan_cache.stats cache in
      Alcotest.(check int) "one miss" (before.Plan_cache.misses + 1) after.Plan_cache.misses;
      Alcotest.(check int) "no hit" before.Plan_cache.hits after.Plan_cache.hits;
      Alcotest.(check int) "one insertion" 1 after.Plan_cache.insertions;
      Alcotest.(check bool) "stored under the exact key" true
        (Engine.cache_find session ~optimizer:"exact"
           (Registry.problem ~graph:base_graph base_catalog)
        <> None))

let test_exact_miss_runs_cold () =
  (* An "exact" cache miss runs exactly as a session without a cache
     does: same passes and final threshold, no note.  The cache already
     holds the same join graph under other cardinalities, which must not
     seed it. *)
  let model = Cost_model.kdnl in
  let stored = Registry.problem ~graph:base_graph base_catalog in
  let prob =
    Registry.problem ~graph:base_graph
      (Catalog.of_cards (Array.map (fun c -> c *. 1.02) (Catalog.cards base_catalog)))
  in
  let cached =
    Engine.with_session ~model ~cache:(Plan_cache.create ()) (fun s ->
        ignore (Engine.optimize s stored);
        Engine.optimize s prob)
  in
  let cold = Engine.with_session ~model (fun s -> Engine.optimize s prob) in
  Alcotest.(check bool) "same cost bits" true (same_float cached.Registry.cost cold.Registry.cost);
  Alcotest.(check bool) "same plan" true (Plan.equal (plan_of cached) (plan_of cold));
  Alcotest.(check int) "same passes" cold.Registry.passes cached.Registry.passes;
  Alcotest.(check bool) "same final threshold" true
    (same_float cached.Registry.final_threshold cold.Registry.final_threshold);
  Alcotest.(check bool) "no note" true (cached.Registry.note = None)

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
     that admits the exact tier while the session cache is empty refuses
     it once the cache holds an entry. *)
  let model = Cost_model.kdnl in
  let n = Catalog.n base_catalog in
  let cache = Plan_cache.create () in
  Engine.with_session ~model ~cache (fun session ->
      let table = Blitz_core.Arena.bytes_after (Engine.arena session) ~n () in
      let budget = Budget.create ~max_table_bytes:table () in
      let eligibility () =
        Budget.start budget;
        Degrade.eligibility ~session ~budget Degrade.Exact base_catalog base_graph
      in
      Alcotest.(check bool) "fits with empty cache" true (eligibility () = None);
      ignore (Result.get_ok (Guard.optimize ~session model base_catalog base_graph));
      Alcotest.(check bool) "the cache holds the plan" true (Plan_cache.resident_bytes cache > 0);
      Alcotest.(check int) "the arena is charged as before" table
        (Blitz_core.Arena.bytes_after (Engine.arena session) ~n ());
      match eligibility () with
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
    test_fingerprint_matches_oracle;
    Alcotest.test_case "warm fingerprint allocates nothing" `Quick test_fingerprint_no_allocation;
    test_rebased_hits_bit_identical;
    Alcotest.test_case "cache shared across sessions" `Quick test_shared_cache_across_sessions;
    Alcotest.test_case "inexact optimizers bypass" `Quick test_inexact_optimizers_bypass;
    Alcotest.test_case "explicit threshold bypasses" `Quick test_explicit_threshold_bypasses;
    Alcotest.test_case "LRU eviction under byte budget" `Quick test_lru_eviction;
    Alcotest.test_case "LRU recency refresh" `Quick test_lru_recency_refresh;
    Alcotest.test_case "duplicate store refreshes" `Quick test_duplicate_store_is_refresh;
    Alcotest.test_case "per-optimizer keys" `Quick test_optimizer_keys_are_distinct;
    Alcotest.test_case "live heap flat under the byte budget" `Quick test_live_heap_flat;
    Alcotest.test_case "exact miss runs cold" `Quick test_exact_miss_runs_cold;
    Alcotest.test_case "guard serves clean-path hits" `Quick test_guard_serves_from_cache;
    Alcotest.test_case "guard bypasses on repairs" `Quick test_guard_bypasses_on_repairs;
    Alcotest.test_case "guard miss is one lookup" `Quick test_guard_miss_is_one_lookup;
    Alcotest.test_case "eligibility charges cache bytes" `Quick test_eligibility_charges_cache_bytes;
    Alcotest.test_case "cacheless sessions opt out" `Quick test_sessions_without_cache_opt_out;
  ]
