(* Experiment "cache": the plan-cache acceptance gate.

   Two claims from the cache design, held to numbers:

   1. Bit-identity (the exp_obs protocol): a cache hit — including a
      hit on a renamed/permuted resubmission, answered by rebasing the
      canonical plan — returns exactly the plan and cost a cold
      optimization of the same problem computes.  Checked before any
      timing; a mismatch fails the experiment loudly.

   2. Repeated-workload throughput: a mixed batch in which every
      distinct query recurs [repeats] times must run >= 5x faster
      through a cache-carrying session than through a plain one at
      n = 10..12 (the gate).  Interleaved best-of-rounds timing, so
      CPU-frequency drift penalizes both configurations alike.

   `bench cache --json BENCH_cache.json` refreshes the committed
   acceptance artifact; its first record stamps the sizes and timing
   parameters the run used. *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Registry = Blitz_engine.Registry
module Engine = Blitz_engine.Engine
module Plan_cache = Blitz_cache.Plan_cache
module Plan = Blitz_plan.Plan
module Rng = Blitz_util.Rng
module Json = Blitz_util.Json

(* Twelve distinct queries: every (topology, mean-card, variability)
   combination below is unique, so within one batch no query is a
   disguised duplicate of another and a cache can only win through the
   deliberate [repeats] factor.  Variability stays positive: the
   appendix cardinality ladder is then strictly increasing, which keeps
   plan costs tie-free (the bit-identity checks compare exact trees). *)
let distinct_batch ~n =
  let topologies = [| Topology.Chain; Topology.Star; Topology.Clique; Topology.Cycle_plus 1 |] in
  let mean_cards = [| 100.0; 1000.0; 10000.0 |] in
  let variabilities = [| 0.3; 0.6 |] in
  List.init 12 (fun i ->
      let spec =
        Workload.spec ~n
          ~topology:topologies.(i mod 4)
          ~model:Cost_model.kdnl
          ~mean_card:mean_cards.(i mod 3)
          ~variability:variabilities.(i mod 2)
      in
      let catalog, graph = Workload.problem spec in
      Registry.problem ~graph catalog)

(* Apply a relation permutation: relation [i] of the base problem
   becomes relation [perm.(i)] of the renamed one.  This is exactly the
   transformation the fingerprint must be invariant under. *)
let permute_problem perm (p : Registry.problem) =
  let n = Catalog.n p.Registry.catalog in
  let cards = Array.make n 0.0 in
  for i = 0 to n - 1 do
    cards.(perm.(i)) <- Catalog.card p.Registry.catalog i
  done;
  let graph =
    match p.Registry.graph with
    | None -> None
    | Some g ->
      let edges =
        List.map
          (fun (i, j, s) ->
            let i' = perm.(i) and j' = perm.(j) in
            ((min i' j'), (max i' j'), s))
          (Join_graph.edges g)
      in
      Some (Join_graph.of_edges ~n edges)
  in
  match graph with
  | Some g -> Registry.problem ~graph:g (Catalog.of_cards cards)
  | None -> Registry.problem (Catalog.of_cards cards)

let random_perm rng n =
  let perm = Array.init n (fun i -> i) in
  Rng.shuffle rng perm;
  perm

let same_cost a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Distance in representable doubles: 0 = bit-identical.  Plan costs are
   accumulated in relation-index order, so re-running the DP in a
   permuted index space legitimately drifts by a few ulps; the rebased
   hit, by contrast, carries the cached cost of the logical query
   verbatim and owes exact bit-identity to ITS cold run. *)
let ulp_diff a b = Int64.abs (Int64.sub (Int64.bits_of_float a) (Int64.bits_of_float b))

let plan_of (o : Registry.outcome) =
  match o.Registry.plan with Some p -> p | None -> failwith "optimizer returned no plan"

(* ---- part 1: bit-identity, direct and under renaming ---- *)

let check_bit_identity ~ns ~model =
  let rng = Rng.create ~seed:42 in
  let checked = ref 0 and rebased_hits = ref 0 in
  List.iter
    (fun n ->
      let problems = distinct_batch ~n in
      let cache = Plan_cache.create () in
      Engine.with_session ~model (fun cold_s ->
          Engine.with_session ~model ~cache (fun cached_s ->
              List.iteri
                (fun qi p ->
                  let fail fmt =
                    Printf.ksprintf
                      (fun msg -> failwith (Printf.sprintf "n=%d query %d: %s" n qi msg))
                      fmt
                  in
                  let cold = Engine.optimize cold_s p in
                  ignore (Engine.optimize cached_s p);
                  let hit = Engine.optimize cached_s p in
                  if not (same_cost cold.Registry.cost hit.Registry.cost) then
                    fail "hit cost %.17g <> cold cost %.17g" hit.Registry.cost cold.Registry.cost;
                  if not (Plan.equal (plan_of cold) (plan_of hit)) then
                    fail "hit plan differs from cold plan";
                  (* Renamed resubmission: same query, permuted indexes.
                     The rebased hit must be bit-identical — cost and
                     tree (through the known renaming) — to the cold run
                     of the logical query it was cached from; a cold DP
                     of the permuted instance itself must agree on the
                     join order, with its cost allowed the few-ulp drift
                     of index-order accumulation. *)
                  let perm = random_perm rng n in
                  let pp = permute_problem perm p in
                  let before = Plan_cache.stats cache in
                  let cold_p = Engine.optimize cold_s pp in
                  let hit_p = Engine.optimize cached_s pp in
                  let after = Plan_cache.stats cache in
                  if after.Plan_cache.rebases > before.Plan_cache.rebases then
                    incr rebased_hits;
                  if not (same_cost cold.Registry.cost hit_p.Registry.cost) then
                    fail "renamed: cached cost %.17g <> logical query's cold cost %.17g"
                      hit_p.Registry.cost cold.Registry.cost;
                  if
                    not
                      (Plan.equal
                         (Plan.normalize (Plan.map_leaves (fun i -> perm.(i)) (plan_of cold)))
                         (Plan.normalize (plan_of hit_p)))
                  then fail "renamed: rebased plan is not the cold plan under the renaming";
                  if
                    not
                      (Plan.equal
                         (Plan.normalize (plan_of cold_p))
                         (Plan.normalize (plan_of hit_p)))
                  then fail "renamed: cached plan differs from the permuted instance's cold plan";
                  if ulp_diff cold_p.Registry.cost hit_p.Registry.cost > 8L then
                    fail "renamed: permuted cold cost %.17g drifts > 8 ulps from cached %.17g"
                      cold_p.Registry.cost hit_p.Registry.cost;
                  checked := !checked + 2)
                problems)))
    ns;
  (!checked, !rebased_hits)

(* ---- part 2: repeated-workload throughput ---- *)

let throughput_row ~model ~repeats ~min_total ~min_runs ~rounds n =
  let problems = distinct_batch ~n in
  let batch = List.concat (List.init repeats (fun _ -> problems)) in
  let size = List.length batch in
  let run_batch session = List.iter (fun p -> ignore (Engine.optimize session p)) batch in
  let no_cache () = Engine.with_session ~model run_batch in
  let with_cache () =
    let cache = Plan_cache.create () in
    Engine.with_session ~model ~cache run_batch
  in
  let plain_s, cached_s =
    Bench_config.interleaved ~rounds ~min_total ~min_runs no_cache with_cache
  in
  let qps s = float_of_int size /. s in
  (qps plain_s, qps cached_s, cached_s /. plain_s, plain_s /. cached_s)

(* ---- driver ---- *)

let speedup_gate = 5.0

let run () =
  Bench_config.header "Plan cache: bit-identity, repeated-workload speedup";
  let model = Cost_model.kdnl in
  let fast = Bench_config.fast in
  let ns_ident = if fast then [ 8; 10 ] else [ 8; 10; 12 ] in
  let ns_tput = if fast then [ 10 ] else [ 10; 11; 12 ] in
  let repeats = 8 in
  let min_total = if fast then 0.05 else 0.4 in
  let rounds = if fast then 3 else 7 in
  let ints ns = Json.List (List.map (fun n -> Json.Int n) ns) in
  Bench_json.emit ~experiment:"cache"
    [
      ("check", Json.String "config");
      ("fast", Json.Bool fast);
      ("identity_ns", ints ns_ident);
      ("throughput_ns", ints ns_tput);
      ("repeats", Json.Int repeats);
      ("rounds", Json.Int rounds);
      ("min_total_s", Json.Float min_total);
      ("cores_available", Json.Int (Blitz_parallel.Parallel_blitzsplit.recommended_domains ()));
    ];

  let checked, rebased = check_bit_identity ~ns:ns_ident ~model in
  Printf.printf
    "bit-identity: %d hit-vs-cold comparisons pass (%d via rebased renamed hits)\n" checked
    rebased;
  if rebased = 0 then failwith "no renamed resubmission was answered from the cache";
  Bench_json.emit ~experiment:"cache"
    [
      ("check", Json.String "bit_identity");
      ("comparisons", Json.Int checked);
      ("rebased_hits", Json.Int rebased);
      ("pass", Json.Bool true);
    ];

  Printf.printf
    "\nrepeated workload: 12 distinct queries x %d submissions each, one session\n" repeats;
  Printf.printf "gate: cached session >= %.0fx the plain session's throughput\n\n" speedup_gate;
  let all_pass = ref true in
  let rows =
    List.map
      (fun n ->
        let plain_qps, cached_qps, _, speedup =
          throughput_row ~model ~repeats ~min_total ~min_runs:2 ~rounds n
        in
        let pass = speedup >= speedup_gate in
        if not pass then all_pass := false;
        Bench_json.emit ~experiment:"cache"
          [
            ("check", Json.String "throughput");
            ("n", Json.Int n);
            ("repeats", Json.Int repeats);
            ("plain_qps", Json.Float plain_qps);
            ("cached_qps", Json.Float cached_qps);
            ("speedup", Json.Float speedup);
            ("gate", Json.Float speedup_gate);
            ("pass", Json.Bool pass);
          ];
        [|
          string_of_int n;
          Printf.sprintf "%.0f" plain_qps;
          Printf.sprintf "%.0f" cached_qps;
          Printf.sprintf "%.1fx" speedup;
          (if pass then "pass" else "FAIL");
        |])
      ns_tput
  in
  Blitz_util.Ascii_table.print
    ~header:[| "n"; "plain (q/s)"; "cached (q/s)"; "speedup"; "gate >=5x" |]
    (Array.of_list rows);

  Printf.printf "\nplans verified bit-identical to cold runs before all timing (would fail loudly)\n";
  if !all_pass then Printf.printf "gate: PASS (bit-identity, >=5x speedup)\n"
  else begin
    Printf.printf "gate: FAIL\n";
    exit 1
  end
