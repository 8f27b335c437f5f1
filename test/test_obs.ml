(* Blitz_obs: the metrics registry, the trace ring, and the invariant
   that makes both safe to leave wired into the optimizer's hot seams —
   observability must never change what the optimizer computes.

   Ordering note: the exposition goldens call [Metrics.clear], which
   orphans instruments cached by instrumented modules (they keep
   working, they just stop appearing in snapshots).  That is fine here
   — this suite runs last and nothing below reads those instruments —
   but it is why these are goldens over a freshly cleared registry
   rather than over the process-wide one.

   BLITZ_TEST_DOMAINS=N adds N to the domain axis, as in
   test_engine.ml. *)

open Test_helpers
module Metrics = Blitz_obs.Metrics
module Trace = Blitz_obs.Trace
module Obs = Blitz_obs.Obs
module Json = Blitz_util.Json
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Counters = Blitz_core.Counters
module Registry = Blitz_engine.Registry

let set_obs on =
  Metrics.set_enabled on;
  Trace.set_enabled on

let with_obs_off f =
  (* Every test leaves the process as it found it: switches off, real
     clock, default ring. *)
  Fun.protect
    ~finally:(fun () ->
      set_obs false;
      Trace.set_clock_for_testing None;
      Trace.set_capacity 4096)
    f

(* {1 Metrics: switches, registration, exactness} *)

(* A gauge's level as the exposition reads it. *)
let gauge_level name =
  List.find_map
    (function Metrics.Gauge g when g.name = name -> Some g.value | _ -> None)
    (Metrics.snapshot ())
  |> Option.get

let test_disabled_is_inert () =
  with_obs_off (fun () ->
      Metrics.set_enabled false;
      let c = Metrics.counter "obs_test_inert_total" in
      let g = Metrics.gauge "obs_test_inert_level" in
      let h = Metrics.histogram "obs_test_inert_seconds" in
      Metrics.incr c;
      Metrics.add c 41;
      Metrics.set g 3.0;
      Metrics.observe h 0.5;
      Alcotest.(check int) "disabled incr/add ignored" 0 (Metrics.value c);
      Alcotest.(check (float 0.0)) "disabled set ignored" 0.0 (gauge_level "obs_test_inert_level");
      Alcotest.(check int) "disabled observe ignored" 0 (Metrics.histogram_count h);
      Alcotest.(check int) "time runs f without observing" 7 (Metrics.time h (fun () -> 7));
      Alcotest.(check int) "still no observation" 0 (Metrics.histogram_count h);
      (* Monotonicity is an API contract, not a recording effect: it
         must hold even while disabled. *)
      Alcotest.check_raises "negative add raises even when disabled"
        (Invalid_argument "Metrics.add: counters are monotonic (negative delta)") (fun () ->
          Metrics.add c (-1));
      Metrics.set_enabled true;
      Metrics.incr c;
      Metrics.add c 41;
      Metrics.set g 3.0;
      Metrics.observe h 0.5;
      Alcotest.(check int) "enabled counter records" 42 (Metrics.value c);
      Alcotest.(check (float 0.0)) "enabled gauge records" 3.0 (gauge_level "obs_test_inert_level");
      Alcotest.(check int) "enabled histogram records" 1 (Metrics.histogram_count h))

let test_registration () =
  with_obs_off (fun () ->
      Metrics.set_enabled true;
      let a = Metrics.counter ~labels:[ ("kind", "x") ] "obs_test_reg_total" in
      let b = Metrics.counter ~labels:[ ("kind", "x") ] "obs_test_reg_total" in
      let other = Metrics.counter ~labels:[ ("kind", "y") ] "obs_test_reg_total" in
      Metrics.incr a;
      Alcotest.(check int) "same (name, labels) is the same instrument" 1 (Metrics.value b);
      Alcotest.(check int) "different labels are a different instrument" 0 (Metrics.value other);
      Alcotest.check_raises "kind mismatch rejected"
        (Invalid_argument "Metrics: \"obs_test_reg_total\" is already registered as a counter")
        (fun () -> ignore (Metrics.gauge ~labels:[ ("kind", "x") ] "obs_test_reg_total"));
      let _ = Metrics.histogram ~buckets:[| 0.1; 1.0 |] "obs_test_reg_seconds" in
      Alcotest.check_raises "rebucketing rejected"
        (Invalid_argument
           "Metrics: histogram \"obs_test_reg_seconds\" re-registered with different buckets")
        (fun () -> ignore (Metrics.histogram ~buckets:[| 0.2; 1.0 |] "obs_test_reg_seconds"));
      Alcotest.check_raises "non-increasing bounds rejected"
        (Invalid_argument "Metrics.histogram: bucket bounds must be strictly increasing")
        (fun () -> ignore (Metrics.histogram ~buckets:[| 1.0; 1.0 |] "obs_test_reg_bad")))

let test_concurrent_increments_exact () =
  (* The domain-safety claim held to numbers: hammer one counter and
     one histogram from several domains at once; every update must
     land.  A plain [int ref] loses updates at these rates. *)
  with_obs_off (fun () ->
      Metrics.set_enabled true;
      let c = Metrics.counter "obs_test_concurrent_total" in
      let h = Metrics.histogram ~buckets:[| 0.5; 1.5 |] "obs_test_concurrent_obs" in
      let per_domain = 50_000 and num_domains = 2 in
      let work () =
        for i = 1 to per_domain do
          Metrics.incr c;
          Metrics.add c 2;
          Metrics.observe h (if i mod 2 = 0 then 0.25 else 1.0)
        done
      in
      let domains = List.init num_domains (fun _ -> Domain.spawn work) in
      List.iter Domain.join domains;
      Alcotest.(check int) "every increment landed" (3 * per_domain * num_domains) (Metrics.value c);
      Alcotest.(check int) "every observation landed" (per_domain * num_domains)
        (Metrics.histogram_count h);
      Alcotest.(check (float 1e-6)) "sum exact (representable summands)"
        (float_of_int (per_domain * num_domains) *. 0.625)
        (Metrics.histogram_sum h))

(* {1 Tracing: spans, the ring, wraparound} *)

(* A deterministic clock ticking whole seconds: 1.0, 2.0, 3.0, ...
   Whole seconds stay exact through the seconds -> microseconds
   conversion, so golden comparisons are exact equality. *)
let install_ticking_clock () =
  let t = ref 0.0 in
  Trace.set_clock_for_testing
    (Some
       (fun () ->
         t := !t +. 1.0;
         !t))

let test_span_nesting () =
  with_obs_off (fun () ->
      install_ticking_clock ();
      Trace.set_capacity 16;
      Trace.set_enabled true;
      let result = Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> 42)) in
      Alcotest.(check int) "span returns f's value" 42 result;
      (match Trace.events () with
      | [ inner; outer ] ->
        Alcotest.(check string) "inner completes first" "inner" inner.Trace.name;
        Alcotest.(check string) "outer completes last" "outer" outer.Trace.name;
        Alcotest.(check (float 0.0)) "inner ts" 2e6 inner.Trace.ts_us;
        Alcotest.(check (float 0.0)) "inner dur" 1e6 inner.Trace.dur_us;
        Alcotest.(check (float 0.0)) "outer ts" 1e6 outer.Trace.ts_us;
        Alcotest.(check (float 0.0)) "outer dur (brackets inner)" 3e6 outer.Trace.dur_us;
        Alcotest.(check bool) "nesting: outer contains inner" true
          (outer.Trace.ts_us <= inner.Trace.ts_us
          && inner.Trace.ts_us +. inner.Trace.dur_us <= outer.Trace.ts_us +. outer.Trace.dur_us)
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
      (* A span is recorded even when the traced function raises. *)
      (try Obs.span "raises" (fun () -> failwith "boom") with Failure _ -> ());
      Alcotest.(check int) "raising span still recorded" 3 (List.length (Trace.events ()));
      (* Disabled spans record nothing and never read the clock. *)
      Trace.set_enabled false;
      ignore (Obs.span "ghost" (fun () -> ()));
      Obs.instant "ghost-mark";
      Alcotest.(check int) "disabled span not recorded" 3 (List.length (Trace.events ())))

let test_ring_wraparound () =
  with_obs_off (fun () ->
      install_ticking_clock ();
      Trace.set_capacity 3;
      Trace.set_enabled true;
      List.iter (fun i -> Obs.instant (Printf.sprintf "e%d" i)) [ 1; 2; 3; 4; 5 ];
      Alcotest.(check (list string)) "ring keeps the newest, oldest first" [ "e3"; "e4"; "e5" ]
        (List.map (fun e -> e.Trace.name) (Trace.events ()));
      Trace.clear ();
      Alcotest.(check int) "clear empties the ring" 0 (List.length (Trace.events ()));
      Alcotest.check_raises "non-positive capacity rejected"
        (Invalid_argument "Trace.set_capacity: capacity must be positive") (fun () ->
          Trace.set_capacity 0))

(* {1 Exposition goldens} *)

let test_prometheus_golden () =
  with_obs_off (fun () ->
      Metrics.clear ();
      Metrics.set_enabled true;
      let ca = Metrics.counter ~help:"Things done" ~labels:[ ("kind", "a") ] "test_things_total" in
      let cb = Metrics.counter ~help:"Things done" ~labels:[ ("kind", "b") ] "test_things_total" in
      let g = Metrics.gauge ~help:"Level" "test_level" in
      let h = Metrics.histogram ~help:"Lat" ~buckets:[| 0.1; 1.0 |] "test_lat_seconds" in
      Metrics.add ca 3;
      Metrics.incr cb;
      Metrics.set g 2.5;
      List.iter (Metrics.observe h) [ 0.05; 0.5; 5.0 ];
      let expected =
        String.concat "\n"
          [
            "# HELP test_lat_seconds Lat";
            "# TYPE test_lat_seconds histogram";
            "test_lat_seconds_bucket{le=\"0.1\"} 1";
            "test_lat_seconds_bucket{le=\"1\"} 2";
            "test_lat_seconds_bucket{le=\"+Inf\"} 3";
            "test_lat_seconds_sum 5.55";
            "test_lat_seconds_count 3";
            "# HELP test_level Level";
            "# TYPE test_level gauge";
            "test_level 2.5";
            "# HELP test_things_total Things done";
            "# TYPE test_things_total counter";
            "test_things_total{kind=\"a\"} 3";
            "test_things_total{kind=\"b\"} 1";
            "";
          ]
      in
      Alcotest.(check string) "prometheus text exposition" expected (Metrics.to_prometheus ());
      (* [reset] zeroes values but keeps registrations visible. *)
      Metrics.reset ();
      Alcotest.(check int) "reset zeroes counters" 0 (Metrics.value ca);
      Alcotest.(check bool) "reset keeps the family exposed" true
        (List.length (Metrics.snapshot ()) = 4);
      Metrics.clear ();
      Alcotest.(check int) "clear drops registrations" 0 (List.length (Metrics.snapshot ())))

let test_chrome_golden () =
  with_obs_off (fun () ->
      install_ticking_clock ();
      Trace.set_capacity 8;
      Trace.set_enabled true;
      ignore (Obs.span ~attrs:[ ("k", "3") ] "rank" (fun () -> Obs.instant "mark"));
      let expected =
        (* Clock ticks: rank t0 = 1s, mark = 2s, rank t1 = 3s; export
           rebases onto the earliest event (the rank span's start). *)
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "mark");
                ("cat", Json.String "blitz");
                ("ph", Json.String "X");
                ("ts", Json.Float 1e6);
                ("dur", Json.Float 0.0);
                ("pid", Json.Int 1);
                ("tid", Json.Int 0);
                ("args", Json.Obj []);
              ];
            Json.Obj
              [
                ("name", Json.String "rank");
                ("cat", Json.String "blitz");
                ("ph", Json.String "X");
                ("ts", Json.Float 0.0);
                ("dur", Json.Float 2e6);
                ("pid", Json.Int 1);
                ("tid", Json.Int 0);
                ("args", Json.Obj [ ("k", Json.String "3") ]);
              ];
          ]
      in
      Alcotest.(check bool) "chrome trace document" true (Trace.to_chrome () = expected);
      let path = Filename.temp_file "blitz_obs" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Trace.write_chrome path;
          let contents = In_channel.with_open_text path In_channel.input_all in
          Alcotest.(check string) "written file is the pretty-printed document"
            (Json.to_string ~indent:true expected ^ "\n")
            contents))

(* {1 The invariant: observability never changes the answer} *)

let domain_axis = List.sort_uniq compare ([ 1; 2; 4 ] @ env_domains)

let counters_equal a b =
  a.Counters.subsets = b.Counters.subsets
  && a.Counters.loop_iters = b.Counters.loop_iters
  && a.Counters.operand_sums = b.Counters.operand_sums
  && a.Counters.dprime_evals = b.Counters.dprime_evals
  && a.Counters.improvements = b.Counters.improvements
  && a.Counters.threshold_skips = b.Counters.threshold_skips
  && a.Counters.infeasible = b.Counters.infeasible
  && a.Counters.passes = b.Counters.passes

let outcome_equal (a : Registry.outcome) (b : Registry.outcome) =
  compare a.Registry.cost b.Registry.cost = 0
  && (match (a.Registry.plan, b.Registry.plan) with
     | Some p, Some q -> Plan.equal p q
     | None, None -> true
     | _ -> false)
  && a.Registry.passes = b.Registry.passes
  && compare a.Registry.final_threshold b.Registry.final_threshold = 0
  && Option.equal counters_equal a.Registry.counters b.Registry.counters

let problem_of_seed seed =
  let rng = Blitz_util.Rng.create ~seed in
  let n = 2 + Blitz_util.Rng.int rng 5 in
  let catalog = random_catalog rng ~n ~lo:1.0 ~hi:1e4 in
  if seed mod 3 = 2 then Registry.problem catalog
  else
    let graph =
      random_graph rng ~n ~edge_prob:(Blitz_util.Rng.float rng 1.0) ~sel_lo:1e-4 ~sel_hi:1.0
    in
    Registry.problem ~graph catalog

let run_with ?threshold ~obs ~optimizer ~num_domains model p =
  set_obs obs;
  Fun.protect
    ~finally:(fun () -> set_obs false)
    (fun () ->
      with_pool ~num_domains (fun pool ->
          let o =
            Registry.optimize ~optimizer
              (Registry.ctx ~pool ?threshold ~counters:(Counters.create ()) model)
              p
          in
          { o with Registry.table = None }))

let test_obs_bit_identical =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:12
       ~name:"plans, costs and counters identical with observability on vs off"
       (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
         with_obs_off (fun () ->
             Trace.set_capacity 256;
             let p = problem_of_seed seed in
             let model = Cost_model.kdnl in
             List.for_all
               (fun num_domains ->
                 (* Exact from threshold 1 escalates through Section
                    6.4's passes. *)
                 List.for_all
                   (fun (optimizer, threshold) ->
                     let off = run_with ?threshold ~obs:false ~optimizer ~num_domains model p in
                     let on = run_with ?threshold ~obs:true ~optimizer ~num_domains model p in
                     outcome_equal off on)
                   [ ("exact", None); ("exact", Some 1.0); ("hybrid", None); ("greedy", None) ])
               domain_axis)))

let suite =
  [
    Alcotest.test_case "disabled recording is inert" `Quick test_disabled_is_inert;
    Alcotest.test_case "registration: idempotent, kind- and bucket-checked" `Quick
      test_registration;
    Alcotest.test_case "concurrent increments sum exactly" `Quick
      test_concurrent_increments_exact;
    Alcotest.test_case "span nesting and raise-safety" `Quick test_span_nesting;
    Alcotest.test_case "ring wraparound and clear" `Quick test_ring_wraparound;
    Alcotest.test_case "prometheus exposition golden" `Quick test_prometheus_golden;
    Alcotest.test_case "chrome trace golden" `Quick test_chrome_golden;
    test_obs_bit_identical;
  ]
