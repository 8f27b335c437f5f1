(* Shared microkernel-rate histograms.  They live here, not next to the
   kernels, so every optimizer that has a "per unit of enumeration"
   inner loop feeds the same named instruments and `blitz explain`
   (and the Prometheus exposition) can show ns/subset regressions
   forever, whichever driver ran. *)

(* Nanoseconds per inner-loop unit: sub-ns to 1 ms upper bounds.  The
   split loop sits around 1-10 ns/iteration on current hardware; the
   wide top end catches catastrophic regressions rather than losing
   them to the +Inf bucket. *)
let ns_buckets =
  [| 0.5; 1.0; 2.0; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 1e3; 1e4; 1e5; 1e6 |]

let split_loop_ns_per_subset =
  Metrics.histogram ~buckets:ns_buckets
    ~help:"Wall-clock nanoseconds per subset processed by the blitzsplit DP loop"
    "blitz_split_loop_ns_per_subset"

let split_loop_ns_per_iter =
  Metrics.histogram ~buckets:ns_buckets
    ~help:"Wall-clock nanoseconds per split-loop iteration of the blitzsplit DP loop"
    "blitz_split_loop_ns_per_iter"

let dpccp_ns_per_pair =
  Metrics.histogram ~buckets:ns_buckets
    ~help:"Wall-clock nanoseconds per csg-cmp pair folded by the dpccp DP loop"
    "blitz_dpccp_ns_per_pair"

let now_s = Blitz_util.Clock.now_s

let observe_rate hist ~elapsed_s ~events =
  if events > 0 && Metrics.enabled () then
    Metrics.observe hist (elapsed_s *. 1e9 /. float_of_int events)

let timed_rate hist ~events f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let e0 = events () in
    let t0 = now_s () in
    let r = f () in
    observe_rate hist ~elapsed_s:(now_s () -. t0) ~events:(events () - e0);
    r
  end
