module Obs = Blitz_obs.Obs

type outcome = { result : Blitzsplit.t; passes : int; final_threshold : float }

let m_passes =
  Obs.Metrics.counter ~help:"Thresholded optimization passes run (Section 6.4)"
    "blitz_threshold_passes_total"

let m_rescues =
  Obs.Metrics.counter ~help:"Forced unthresholded rescue passes after every attempt failed"
    "blitz_threshold_rescue_passes_total"

let m_skips =
  Obs.Metrics.counter ~help:"Subsets skipped by the plan-cost threshold filter"
    "blitz_threshold_skipped_subsets_total"

(* Thresholded passes before the unthresholded rescue pass. *)
let max_passes = 16

(* [passes] counts optimization passes actually run — each thresholded
   attempt plus, when all attempts fail (or the growing threshold
   overflows to infinity), the forced unthresholded rescue pass, which
   always concludes the sequence with an answer. *)
let drive ?counters ?(growth = 1e4) ~threshold run =
  if threshold <= 0.0 || not (Float.is_finite threshold) then
    invalid_arg "Threshold: initial threshold must be positive and finite";
  if not (growth > 1.0) then invalid_arg "Threshold: growth must exceed 1";
  let counters = match counters with Some c -> c | None -> Counters.create () in
  let skips_before = counters.Counters.threshold_skips in
  let rec go passes_run threshold =
    if passes_run >= max_passes || not (Float.is_finite threshold) then begin
      (* Rescue pass: unthresholded, cannot fail. *)
      Obs.Metrics.incr m_passes;
      Obs.Metrics.incr m_rescues;
      let result =
        Obs.span "threshold.rescue" (fun () -> run ~counters ~threshold:Float.infinity)
      in
      { result; passes = passes_run + 1; final_threshold = Float.infinity }
    end
    else begin
      Obs.Metrics.incr m_passes;
      let result =
        Obs.span "threshold.pass"
          ~attrs:
            [
              ("pass", string_of_int (passes_run + 1));
              ("threshold", Printf.sprintf "%g" threshold);
            ]
          (fun () -> run ~counters ~threshold)
      in
      if Blitzsplit.feasible result then
        { result; passes = passes_run + 1; final_threshold = threshold }
      else go (passes_run + 1) (threshold *. growth)
    end
  in
  let outcome = go 0 threshold in
  (* The paper's own §6.4 statistic: how many subsets the threshold
     filter let the driver skip, summed over every pass of this call. *)
  Obs.Metrics.add m_skips (max 0 (counters.Counters.threshold_skips - skips_before));
  outcome
