(* Plan-cost threshold pruning and multi-pass re-optimization (Section 6.4). *)

open Test_helpers
module Blitzsplit = Blitz_core.Blitzsplit
module Counters = Blitz_core.Counters
module Registry = Blitz_engine.Registry

let check_float = Test_helpers.check_float

(* The registry's exact entry, plain or under a threshold: the one way a
   caller reaches Section 6.4's driver. *)
let exact ?counters ?threshold ?growth ?graph model catalog =
  Registry.optimize ~optimizer:"exact"
    (Registry.ctx ?counters ?threshold ?growth model)
    (Registry.problem ?graph catalog)

let plan_of (o : Registry.outcome) = Option.get o.Registry.plan

let test_threshold_above_optimum_is_exact () =
  (* Table 1's optimum is 241000; any threshold above that must return
     the identical plan in a single pass. *)
  let unconstrained = Blitzsplit.optimize_product Cost_model.naive abcd_catalog in
  let outcome = exact ~threshold:300000.0 Cost_model.naive abcd_catalog in
  Alcotest.(check int) "single pass" 1 outcome.Registry.passes;
  check_float "same cost" (Blitzsplit.best_cost unconstrained) outcome.Registry.cost;
  Alcotest.(check bool) "same plan" true
    (Plan.equal (Blitzsplit.best_plan_exn unconstrained) (plan_of outcome))

let test_threshold_below_optimum_fails_single_pass () =
  let r = Blitzsplit.optimize_product ~threshold:1000.0 Cost_model.naive abcd_catalog in
  Alcotest.(check bool) "infeasible" false (Blitzsplit.feasible r);
  Alcotest.(check bool) "no plan" true (Blitzsplit.best_plan r = None);
  Alcotest.check_raises "best_plan_exn raises"
    (Failure "Blitzsplit.best_plan_exn: no plan under the given threshold") (fun () ->
      ignore (Blitzsplit.best_plan_exn r))

let test_multipass_recovers_optimum () =
  (* Start far below 241000; growth 10 forces several passes. *)
  let outcome = exact ~growth:10.0 ~threshold:100.0 Cost_model.naive abcd_catalog in
  Alcotest.(check bool) "multiple passes" true (outcome.Registry.passes > 1);
  check_float "optimum recovered" 241000.0 outcome.Registry.cost;
  (* 100 * 10^k must first exceed 241000 at k=4 -> 5 passes. *)
  Alcotest.(check int) "pass count" 5 outcome.Registry.passes;
  check_float "final threshold" 1e6 outcome.Registry.final_threshold

let test_rescue_pass_accounting () =
  (* From threshold 1 doubling, all 16 thresholded passes fail (the last
     at 2^15 = 32768 < 241000) and the driver runs the forced
     unthresholded rescue pass.  [passes] must count every one of them
     (16 + rescue = 17) and agree with the per-pass instrumentation; the
     rescue pass reports threshold infinity and still recovers the exact
     optimum. *)
  let counters = Counters.create () in
  let outcome = exact ~counters ~growth:2.0 ~threshold:1.0 Cost_model.naive abcd_catalog in
  Alcotest.(check int) "16 thresholded passes + rescue pass" 17 outcome.Registry.passes;
  Alcotest.(check int) "counters agree" 17 counters.Counters.passes;
  check_float "rescue is unthresholded" Float.infinity outcome.Registry.final_threshold;
  check_float "optimum recovered" 241000.0 outcome.Registry.cost

let test_threshold_skips_counted () =
  let counters = Counters.create () in
  let _ =
    Blitzsplit.optimize_product ~counters ~threshold:1000.0 Cost_model.naive abcd_catalog
  in
  Alcotest.(check bool) "skips recorded" true (counters.Counters.threshold_skips > 0);
  Alcotest.(check bool) "infeasible recorded" true (counters.Counters.infeasible > 0)

let test_threshold_reduces_work () =
  (* With kappa_0 and a threshold, subsets whose output cardinality
     reaches the threshold never run their split loop: fewer loop
     iterations than the analytic unconstrained count. *)
  let n = 10 in
  let catalog = Catalog.uniform ~n ~card:1000.0 in
  let counters = Counters.create () in
  let _ = Blitzsplit.optimize_product ~counters ~threshold:1e12 Cost_model.naive catalog in
  Alcotest.(check bool) "fewer iterations" true
    (counters.Counters.loop_iters < Counters.exact_loop_iters n)

let test_invalid_arguments () =
  Alcotest.check_raises "bad threshold" (Invalid_argument "Blitzsplit: threshold must be positive")
    (fun () ->
      ignore (Blitzsplit.optimize_product ~threshold:0.0 Cost_model.naive abcd_catalog));
  List.iter
    (fun growth ->
      Alcotest.check_raises "bad growth" (Invalid_argument "Threshold: growth must exceed 1")
        (fun () ->
          ignore (exact ~growth ~threshold:10.0 Cost_model.naive abcd_catalog)))
    [ 1.0; Float.nan ];
  Alcotest.check_raises "infinite initial"
    (Invalid_argument "Threshold: initial threshold must be positive and finite") (fun () ->
      ignore (exact ~threshold:Float.infinity Cost_model.naive abcd_catalog))

(* Correctness of threshold search in general: for any problem and any
   starting threshold, the multi-pass driver returns the unconstrained
   optimum (Section 6.4's subplan argument, verified empirically). *)
let prop_multipass_equals_unconstrained =
  QCheck2.Test.make ~count:120 ~name:"multi-pass threshold search returns the true optimum"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let unconstrained = Blitzsplit.optimize_join p.model p.catalog p.graph in
      let rng = Rng.create ~seed:(p.seed + 99) in
      let threshold = Rng.log_uniform rng ~lo:1e-2 ~hi:1e8 in
      let outcome = exact ~threshold ~graph:p.graph p.model p.catalog in
      Blitz_util.Float_more.approx_equal ~rel:1e-6
        (Blitzsplit.best_cost unconstrained)
        outcome.Registry.cost)

(* Monotonicity: a feasible single pass at threshold T stays feasible
   and optimal at any T' > T. *)
let prop_threshold_monotone =
  QCheck2.Test.make ~count:100 ~name:"raising a feasible threshold never changes the result"
    ~print:problem_print (problem_gen ~max_n:7)
    (fun p ->
      let unconstrained = Blitzsplit.optimize_join p.model p.catalog p.graph in
      let opt = Blitzsplit.best_cost unconstrained in
      let t1 = opt *. 1.5 +. 1.0 in
      let t2 = opt *. 100.0 +. 1.0 in
      let r1 = Blitzsplit.optimize_join ~threshold:t1 p.model p.catalog p.graph in
      let r2 = Blitzsplit.optimize_join ~threshold:t2 p.model p.catalog p.graph in
      Blitz_util.Float_more.approx_equal ~rel:1e-6 (Blitzsplit.best_cost r1) opt
      && Blitz_util.Float_more.approx_equal ~rel:1e-6 (Blitzsplit.best_cost r2) opt)

(* [exact] under any threshold: the plain pass's plan and cost bits, and
   Section 6.4's escalation.  A pass at threshold T finds a plan exactly
   when the optimum is below T, so the driver stops at the first of t,
   t * growth, t * growth^2, ... (its own products) above the optimum,
   within 16 passes, or else runs the unthresholded rescue pass.  Starts
   far below, just below, just above and far above the optimum; a
   sequence that passes within 1e-9 of the optimum, where rounding in
   the threshold test decides, is discarded. *)
let escalation ~opt ~growth t =
  let rec go k t =
    if k >= 16 || not (Float.is_finite t) then (k + 1, Float.infinity)
    else if opt < t then (k + 1, t)
    else go (k + 1) (t *. growth)
  in
  go 0 t

let prop_exact_threshold_escalates =
  QCheck2.Test.make ~count:200
    ~name:"exact under a threshold = plain pass, with Section 6.4's passes"
    ~print:(fun (p, f, growth) -> Printf.sprintf "%s t=opt*%g growth=%g" (problem_print p) f growth)
    QCheck2.Gen.(
      triple (problem_gen ~max_n:8)
        (oneof
           [
             oneofl [ 1.0 -. 1e-6; 1.0 +. 1e-6 ];
             map (fun e -> 10.0 ** e) (float_range (-12.0) 3.0);
           ])
        (map (fun e -> 10.0 ** e) (float_range 0.005 4.0)))
    (fun (p, f, growth) ->
      let plain = exact ~graph:p.graph p.model p.catalog in
      let opt = plain.Registry.cost in
      QCheck2.assume (Float.is_finite opt && opt > 0.0);
      let t = opt *. f in
      let rec near k t =
        k < 17 && Float.is_finite t
        && (Float.abs (t -. opt) <= 1e-9 *. opt || near (k + 1) (t *. growth))
      in
      QCheck2.assume (t > 0.0 && not (near 0 t));
      let counters = Counters.create () in
      let o = exact ~counters ~threshold:t ~growth ~graph:p.graph p.model p.catalog in
      let passes, final_threshold = escalation ~opt ~growth t in
      if
        o.Registry.plan <> plain.Registry.plan
        || Int64.bits_of_float o.Registry.cost <> Int64.bits_of_float opt
      then QCheck2.Test.fail_reportf "cost %.17g, plain pass %.17g" o.Registry.cost opt;
      if o.Registry.passes <> passes || counters.Counters.passes <> passes then
        QCheck2.Test.fail_reportf "%d passes (%d counted), expected %d" o.Registry.passes
          counters.Counters.passes passes;
      if Int64.bits_of_float o.Registry.final_threshold <> Int64.bits_of_float final_threshold
      then
        QCheck2.Test.fail_reportf "final threshold %.17g, expected %.17g"
          o.Registry.final_threshold final_threshold;
      true)

(* The exact tier's pass, at the driver level: one pass at
   [Registry.upper_bound], which under kappa_sm also charges each
   subset its completion term, returns the plain pass's plan and cost
   bits, on the calling domain and on pools of 1, 2 and 4 domains, and
   every width skips the same subsets.  kappa_0, kappa_dnl and an Opaque
   min-of, which keep the paper's test alone, are the controls.  On
   chains of 8 or more relations the kappa_sm pass must skip subsets,
   which the paper's test alone never does there (kappa' = 0). *)
let bound_case_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Rng.create ~seed in
        let n = 3 + Rng.int rng 8 in
        let topology =
          match Rng.int rng 5 with
          | 0 | 1 -> Topology.Chain
          | 2 -> Topology.Star
          | 3 -> Topology.Cycle_plus (if n >= 7 then 2 else 0)
          | _ -> Topology.Clique
        in
        let model =
          match Rng.int rng 6 with
          | 0 | 1 | 2 -> Cost_model.sort_merge
          | 3 -> Cost_model.naive
          | 4 -> Cost_model.kdnl
          | _ -> Cost_model.min_of Cost_model.sort_merge Cost_model.kdnl
        in
        let mean_card = Rng.log_uniform rng ~lo:2.0 ~hi:1e4 in
        let variability = Rng.float rng 1.0 in
        Blitz_workload.Workload.spec ~n ~topology ~model ~mean_card ~variability)
      (int_bound 1_000_000))

let prop_upper_bound_pass_bit_identical =
  QCheck2.Test.make ~count:150
    ~name:"upper-bound pass = plain pass, bit for bit (completion bound, every driver)"
    ~print:Blitz_workload.Workload.describe bound_case_gen
    (fun spec ->
      let module Registry = Blitz_engine.Registry in
      let model = spec.Blitz_workload.Workload.model in
      let catalog, graph = Blitz_workload.Workload.problem spec in
      let same what (plain : Blitzsplit.t) (pass : Blitzsplit.t) =
        if
          Blitzsplit.best_plan pass <> Blitzsplit.best_plan plain
          || Int64.bits_of_float (Blitzsplit.best_cost pass)
             <> Int64.bits_of_float (Blitzsplit.best_cost plain)
        then
          QCheck2.Test.fail_reportf "%s: %.17g, plain pass %.17g" what (Blitzsplit.best_cost pass)
            (Blitzsplit.best_cost plain)
      in
      (match Registry.upper_bound (Registry.heuristics model (Registry.problem ~graph catalog)) with
      | None -> QCheck2.Test.fail_reportf "no upper bound"
      | Some { Registry.value = threshold; _ } ->
        let plain = Blitzsplit.optimize_join model catalog graph in
        let seq = Blitzsplit.optimize_join ~threshold model catalog graph in
        same "sequential" plain seq;
        let skips = seq.Blitzsplit.counters.Counters.threshold_skips in
        List.iter
          (fun d ->
            let par =
              with_pool ~num_domains:d (fun pool ->
                  Blitzsplit.optimize_join ~pool ~threshold model catalog graph)
            in
            same (Printf.sprintf "%d domain(s)" d) plain par;
            if par.Blitzsplit.counters.Counters.threshold_skips <> skips then
              QCheck2.Test.fail_reportf "%d domain(s) skipped %d subsets, sequential %d" d
                par.Blitzsplit.counters.Counters.threshold_skips skips)
          [ 1; 2; 4 ];
        if
          model.Cost_model.kind = Cost_model.Paper_sort_merge
          && spec.Blitz_workload.Workload.topology = Topology.Chain
          && Catalog.n catalog >= 8 && skips = 0
        then QCheck2.Test.fail_reportf "kappa_sm chain: no subset skipped");
      true)

let suite =
  [
    Alcotest.test_case "threshold above optimum: exact, one pass" `Quick
      test_threshold_above_optimum_is_exact;
    Alcotest.test_case "threshold below optimum: infeasible" `Quick
      test_threshold_below_optimum_fails_single_pass;
    Alcotest.test_case "multi-pass recovers the optimum" `Quick test_multipass_recovers_optimum;
    Alcotest.test_case "rescue pass is counted consistently" `Quick test_rescue_pass_accounting;
    Alcotest.test_case "skip counters" `Quick test_threshold_skips_counted;
    Alcotest.test_case "thresholds reduce split-loop work" `Quick test_threshold_reduces_work;
    Alcotest.test_case "argument validation" `Quick test_invalid_arguments;
    QCheck_alcotest.to_alcotest prop_multipass_equals_unconstrained;
    QCheck_alcotest.to_alcotest prop_threshold_monotone;
    QCheck_alcotest.to_alcotest prop_exact_threshold_escalates;
    QCheck_alcotest.to_alcotest prop_upper_bound_pass_bit_identical;
  ]
