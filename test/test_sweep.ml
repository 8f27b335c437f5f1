(* Sweep 1 as one kernel per cost model ([Split_loop.sweep]) against its
   per-subset form, kept as [Sweep_reference]: the property computation
   of each subset, then §6.4's skip test through its own call.

   Random problems cover join and product passes, n from 2 to 12, the
   three paper models and an Opaque min-of combination, at four
   thresholds: none, the exact tier's seed ([Registry.upper_bound]), a
   log-uniform draw around the optimum and one below it.  Each runs at
   every width [Blitzsplit.sweep] has: one block on the calling domain,
   and four blocks on pools of 1, 2 and 4 domains (plus
   BLITZ_TEST_DOMAINS).  For every subset each width must write the
   oracle's bits in [card], [pi_fan], [cost] and [best_lhs], and in
   [aux] where the model reads it (kappa_sm and Opaque); under kappa_0
   and kappa_dnl it must leave a NaN-filled [aux] column untouched.  The
   kept subsets must be the oracle's, rank by rank in increasing order,
   and the subset, skip and infeasible counts must match.  A probe that
   fires mid-sweep must still leave the skips made so far in the pass's
   counters, which the degradation cascade reports after a deadline, at
   one domain and on a pool. *)

open Test_helpers
module Blitzsplit = Blitz_core.Blitzsplit
module Dp_table = Blitz_core.Dp_table
module Split_loop = Blitz_core.Split_loop
module Counters = Blitz_core.Counters
module Live_index = Blitz_core.Live_index
module Registry = Blitz_engine.Registry
module Pool = Blitz_parallel.Pool

let domain_axis = List.sort_uniq compare ([ 1; 2; 4 ] @ env_domains)

(* One pool per width of [domain_axis] for the duration of [f]. *)
let with_pools f =
  let rec go acc = function
    | [] -> f (List.rev acc)
    | num_domains :: rest -> with_pool ~num_domains (fun p -> go (p :: acc) rest)
  in
  go [] domain_axis

type bound = Infinite | Upper_bound | Log_uniform of float | Below_optimum of float

type case = {
  catalog : Catalog.t;
  graph : Join_graph.t option;  (* [None]: a Cartesian-product pass *)
  model : Cost_model.t;
  bound : bound;
  seed : int;
}

let pp_case ppf c =
  Format.fprintf ppf "seed=%d n=%d %s model=%s threshold=%s" c.seed (Catalog.n c.catalog)
    (match c.graph with
    | Some g -> Printf.sprintf "join (%d edges)" (Join_graph.edge_count g)
    | None -> "product")
    c.model.Cost_model.name
    (match c.bound with
    | Infinite -> "inf"
    | Upper_bound -> "upper bound"
    | Log_uniform f -> Printf.sprintf "%g x optimum" f
    | Below_optimum f -> Printf.sprintf "%g x optimum" f)

let case_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Rng.create ~seed in
        let n = 2 + Rng.int rng 11 in
        let catalog = random_catalog rng ~n ~lo:1.0 ~hi:1e4 in
        let graph =
          if Rng.bool rng then
            Some (random_graph rng ~n ~edge_prob:(Rng.float rng 1.0) ~sel_lo:1e-4 ~sel_hi:1.0)
          else None
        in
        let model =
          match Rng.int rng 4 with
          | 0 -> Cost_model.naive
          | 1 -> Cost_model.sort_merge
          | 2 -> Cost_model.kdnl
          | _ -> Cost_model.min_of Cost_model.sort_merge Cost_model.kdnl
        in
        let bound =
          match Rng.int rng 4 with
          | 0 -> Infinite
          | 1 -> Upper_bound
          | 2 -> Log_uniform (Rng.log_uniform rng ~lo:1e-3 ~hi:1e3)
          | _ -> Below_optimum (0.05 +. Rng.float rng 0.9)
        in
        { catalog; graph; model; bound; seed })
      (int_bound 1_000_000))

let optimum c =
  let r =
    match c.graph with
    | Some g -> Blitzsplit.optimize_join c.model c.catalog g
    | None -> Blitzsplit.optimize_product c.model c.catalog
  in
  Blitzsplit.best_cost r

let threshold c =
  match c.bound with
  | Infinite -> Float.infinity
  | Upper_bound -> (
    let problem = Registry.problem ?graph:c.graph c.catalog in
    match Registry.upper_bound (Registry.heuristics c.model problem) with
    | Some b -> b.Registry.value
    | None -> Float.infinity)
  | Log_uniform f | Below_optimum f -> Float.max (f *. optimum c) Float.min_float

let bits = Int64.bits_of_float

let rec popcount s = if s = 0 then 0 else 1 + popcount (s land (s - 1))

let reads_aux (model : Cost_model.t) =
  match model.kind with
  | Cost_model.Paper_sort_merge | Cost_model.Opaque -> true
  | Cost_model.Paper_naive | Cost_model.Paper_dnl _ -> false

let width_name = function
  | None -> "one block"
  | Some p -> Printf.sprintf "%d-domain pool" (Pool.num_domains p)

(* The pools of the property's width axis, set while it runs. *)
let pools = ref []

let prop_sweep_matches_oracle =
  QCheck2.Test.make ~count:200
    ~name:"sweep 1 kernel = per-subset oracle (join/product x models x thresholds)"
    ~print:(fun c -> Format.asprintf "%a" pp_case c)
    case_gen
    (fun c ->
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let n = Catalog.n c.catalog and threshold = threshold c in
      let with_pi_fan = Option.is_some c.graph in
      let rt = Dp_table.create ~with_pi_fan n and rc = Counters.create () in
      Sweep_reference.init_singletons rt c.model c.catalog;
      let kept = Sweep_reference.sweep ~graph:c.graph ~interrupt:None rt c.model rc ~threshold in
      let width pool =
        let fail fmt = fail ("%s: " ^^ fmt) (width_name pool) in
        let kt = Dp_table.create ~with_pi_fan n and kc = Counters.create () in
        Array.fill kt.Dp_table.aux 0 (Array.length kt.Dp_table.aux) Float.nan;
        let lists = Live_index.create () in
        Live_index.start lists ~n ~index:(Split_loop.scan_applies c.model ~threshold);
        Split_loop.init_singletons ~graph:c.graph kt c.model c.catalog;
        Blitzsplit.sweep ~pool ~graph:c.graph ~interrupt:None kt c.model kc ~threshold lists;
        let column name get s =
          if bits (get rt s) <> bits (get kt s) then
            fail "%s bits diverged at subset %d: %h (oracle) vs %h" name s (get rt s) (get kt s)
        in
        for s = 1 to (1 lsl n) - 1 do
          column "card" (fun t s -> t.Dp_table.card.(s)) s;
          column "cost" (fun t s -> t.Dp_table.cost.(s)) s;
          if with_pi_fan then column "pi_fan" (fun t s -> t.Dp_table.pi_fan.(s)) s;
          if reads_aux c.model then column "aux" (fun t s -> t.Dp_table.aux.(s)) s
          else if not (Float.is_nan kt.Dp_table.aux.(s)) then fail "aux slot %d was written" s;
          if rt.Dp_table.best_lhs.(s) <> kt.Dp_table.best_lhs.(s) then
            fail "best_lhs diverged at subset %d: %d (oracle) vs %d" s rt.Dp_table.best_lhs.(s)
              kt.Dp_table.best_lhs.(s)
        done;
        for k = 2 to n do
          let expected = List.filter (fun s -> popcount s = k) kept in
          let got = List.init (Live_index.length lists k) (Live_index.get lists k) in
          if got <> expected then fail "rank %d: kept list differs from the oracle's" k
        done;
        let counter name get =
          if get rc <> get kc then fail "counter %s: %d (oracle) vs %d" name (get rc) (get kc)
        in
        counter "subsets" (fun c -> c.Counters.subsets);
        counter "threshold_skips" (fun c -> c.Counters.threshold_skips);
        counter "infeasible" (fun c -> c.Counters.infeasible)
      in
      List.iter width (None :: List.map Option.some !pools);
      true)

(* A deadline that fires during sweep 1 of a seeded pass: the probe is
   polled once before the table is touched, then every 64 subsets, so a
   probe that fires on its 11th call stops the sweep at subset 640.  The
   skips made by then must be in the pass's counters, as they are in the
   oracle's, which counts them as it goes. *)
let test_interrupted_sweep_keeps_counts () =
  let n = 12 in
  let spec =
    Blitz_workload.Workload.spec ~n ~topology:Topology.Chain ~model:Cost_model.kdnl
      ~mean_card:150.0 ~variability:(1.0 /. 3.0)
  in
  let catalog, graph = Blitz_workload.Workload.problem spec in
  let model = Cost_model.kdnl in
  let threshold =
    match Registry.upper_bound (Registry.heuristics model (Registry.problem ~graph catalog)) with
    | Some b -> b.Registry.value
    | None -> Alcotest.fail "no upper bound"
  in
  let firing_on k =
    let calls = ref 0 in
    fun () ->
      incr calls;
      !calls >= k
  in
  List.iter
    (fun join ->
      let what = if join then "join" else "product" in
      let ctr = Counters.create () in
      Alcotest.check_raises (what ^ ": interrupted") Blitzsplit.Interrupted (fun () ->
          let interrupt = firing_on 11 in
          ignore
            (if join then
               Blitzsplit.optimize_join ~counters:ctr ~threshold ~interrupt model catalog graph
             else Blitzsplit.optimize_product ~counters:ctr ~threshold ~interrupt model catalog));
      let rc = Counters.create () in
      let rt = Dp_table.create ~with_pi_fan:join n in
      Sweep_reference.init_singletons rt model catalog;
      (match
         Sweep_reference.sweep
           ~graph:(if join then Some graph else None)
           ~interrupt:(Some (firing_on 10)) rt model rc ~threshold
       with
      | _ -> Alcotest.fail "the oracle's probe did not fire"
      | exception Blitzsplit.Interrupted -> ());
      if rc.Counters.threshold_skips = 0 then
        Alcotest.failf "%s: nothing skipped by subset 640" what;
      Alcotest.(check (list int))
        (what ^ ": subsets, skips and infeasible counted before the deadline")
        [ rc.Counters.subsets; rc.Counters.threshold_skips; rc.Counters.infeasible ]
        [ ctr.Counters.subsets; ctr.Counters.threshold_skips; ctr.Counters.infeasible ])
    [ true; false ]

(* The same on a 2-domain pool: an [Atomic]-counted probe that fires on
   its 11th call stops sweep 1's blocks wherever each one polls next.
   The counts each block made by then must reach the pass's counters
   through its domain's; the pool must then run a whole pass to the
   bits of a pass on the calling domain. *)
let test_interrupted_pool_sweep_keeps_counts () =
  let n = 12 in
  let model = Cost_model.kdnl in
  let spec =
    Blitz_workload.Workload.spec ~n ~topology:Topology.Chain ~model ~mean_card:150.0
      ~variability:(1.0 /. 3.0)
  in
  let catalog, graph = Blitz_workload.Workload.problem spec in
  let threshold =
    match Registry.upper_bound (Registry.heuristics model (Registry.problem ~graph catalog)) with
    | Some b -> b.Registry.value
    | None -> Alcotest.fail "no upper bound"
  in
  with_pool ~num_domains:2 (fun pool ->
      let calls = Atomic.make 0 in
      let interrupt () = Atomic.fetch_and_add calls 1 >= 10 in
      let ctr = Counters.create () in
      Alcotest.check_raises "interrupted" Blitzsplit.Interrupted (fun () ->
          ignore
            (Blitzsplit.optimize_join ~pool ~counters:ctr ~threshold ~interrupt model catalog
               graph));
      let subsets = ctr.Counters.subsets and skips = ctr.Counters.threshold_skips in
      if subsets <= 0 || subsets >= (1 lsl n) - n - 1 then
        Alcotest.failf "%d subsets counted before the deadline" subsets;
      if skips > subsets then Alcotest.failf "%d skips of %d subsets" skips subsets;
      Alcotest.(check int) "infeasible = skips" skips ctr.Counters.infeasible;
      let seq = Blitzsplit.optimize_join ~threshold model catalog graph in
      let par = Blitzsplit.optimize_join ~pool ~threshold model catalog graph in
      let st = seq.Blitzsplit.table and pt = par.Blitzsplit.table in
      for s = 1 to (1 lsl n) - 1 do
        if
          bits st.Dp_table.cost.(s) <> bits pt.Dp_table.cost.(s)
          || bits st.Dp_table.card.(s) <> bits pt.Dp_table.card.(s)
          || st.Dp_table.best_lhs.(s) <> pt.Dp_table.best_lhs.(s)
        then Alcotest.failf "subset %d differs from the pass on the calling domain" s
      done;
      let counters r = Format.asprintf "%a" Counters.pp r.Blitzsplit.counters in
      Alcotest.(check string) "counters" (counters seq) (counters par))

let suite =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_sweep_matches_oracle in
  let run () =
    with_pools (fun ps ->
        pools := ps;
        Fun.protect ~finally:(fun () -> pools := []) run)
  in
  [
    (name, speed, run);
    Alcotest.test_case "a probe firing mid-sweep keeps the skips so far" `Quick
      test_interrupted_sweep_keeps_counts;
    Alcotest.test_case "a probe firing mid-sweep on a pool keeps every block's counts" `Quick
      test_interrupted_pool_sweep_keeps_counts;
  ]
