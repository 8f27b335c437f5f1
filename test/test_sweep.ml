(* Sweep 1 as one kernel per cost model ([Split_loop.sweep]) against its
   per-subset form, kept as [Sweep_reference]: the property computation
   of each subset, then §6.4's skip test through its own call.

   Random problems cover join and product passes, n from 2 to 12, the
   three paper models and an Opaque min-of combination, at four
   thresholds: none, the exact tier's seed ([Registry.upper_bound]), a
   log-uniform draw around the optimum and one below it.  For every
   subset the kernel must write the oracle's bits in [card], [pi_fan],
   [cost] and [best_lhs], and in [aux] where the model reads it (kappa_sm
   and Opaque); under kappa_0 and kappa_dnl it must leave a NaN-filled
   [aux] column untouched.  The kept subsets must be the oracle's, rank
   by rank in increasing order, and the subset, skip and infeasible
   counts must match.  A probe that fires mid-sweep must still leave the
   skips made so far in the pass's counters, which the degradation
   cascade reports after a deadline. *)

open Test_helpers
module Blitzsplit = Blitz_core.Blitzsplit
module Dp_table = Blitz_core.Dp_table
module Split_loop = Blitz_core.Split_loop
module Counters = Blitz_core.Counters
module Live_index = Blitz_core.Live_index
module Registry = Blitz_engine.Registry

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
    match Registry.upper_bound c.model (Registry.problem ?graph:c.graph c.catalog) with
    | Some b -> b.Registry.value
    | None -> Float.infinity)
  | Log_uniform f | Below_optimum f -> Float.max (f *. optimum c) Float.min_float

let bits = Int64.bits_of_float

let rec popcount s = if s = 0 then 0 else 1 + popcount (s land (s - 1))

let reads_aux (model : Cost_model.t) =
  match model.kind with
  | Cost_model.Paper_sort_merge | Cost_model.Opaque -> true
  | Cost_model.Paper_naive | Cost_model.Paper_dnl _ -> false

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
      let kt = Dp_table.create ~with_pi_fan n and kc = Counters.create () in
      Array.fill kt.Dp_table.aux 0 (Array.length kt.Dp_table.aux) Float.nan;
      let lists = Live_index.create () in
      Live_index.start lists ~n ~index:(Split_loop.scan_applies c.model ~threshold);
      Split_loop.init_singletons kt c.model c.catalog;
      Split_loop.sweep ~graph:c.graph ~interrupt:None kt c.model kc ~threshold lists;
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
      counter "infeasible" (fun c -> c.Counters.infeasible);
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
    match Registry.upper_bound model (Registry.problem ~graph catalog) with
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

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sweep_matches_oracle;
    Alcotest.test_case "a probe firing mid-sweep keeps the skips so far" `Quick
      test_interrupted_sweep_keeps_counts;
  ]
