(* Shared configuration for the benchmark harness.

   Defaults reproduce the paper's parameters (n = 15, the full axes).
   Environment overrides:
     BLITZ_BENCH_N     relation count for the figure sweeps (default 15)
     BLITZ_BENCH_FAST  any value: shrink axes and timing budgets for a
                       quick smoke run (used by CI-style checks)

   The paper timed each point until 30 wall-clock seconds had accumulated
   (footnote 4); we use the same repeat-until-budget protocol with a
   smaller budget so the full grid stays in minutes, not hours — a
   documented substitution (DESIGN.md). *)

let fast = Sys.getenv_opt "BLITZ_BENCH_FAST" <> None

let n =
  match Sys.getenv_opt "BLITZ_BENCH_N" with
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n >= 4 && n <= 18 -> n
    | Some _ | None -> failwith "BLITZ_BENCH_N must be an integer in [4, 18]")
  | None -> if fast then 11 else 15

let time_budget = if fast then 0.02 else 0.1
let min_runs = 2

let time f = Blitz_util.Timer.time_adaptive ~min_total:time_budget ~min_runs f

let mean_cards_fig4 =
  (* 1 .. 10^4 in the overview grid. *)
  Array.sub (Blitz_workload.Workload.mean_card_axis ~count:10 ()) 0 (if fast then 5 else 7)

let mean_cards_fig5 =
  (* The close-ups extend to 10^6. *)
  Blitz_workload.Workload.mean_card_axis ~count:(if fast then 7 else 10) ()

let variabilities = Blitz_workload.Workload.variability_axis ~count:4 ()

(* Wall-clock seconds for every bench timing, read from CLOCK_MONOTONIC
   through bechamel's stub so that an NTP step can neither stretch nor
   shrink a measurement.  Only differences between two readings mean
   anything. *)
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Mean wall-clock seconds per call of [f]: at least [min_runs] calls
   and [min_total] accumulated seconds (the paper's footnote-4 protocol
   on the wall clock). *)
let time_wall ~min_total ~min_runs f =
  let t0 = wall () in
  f ();
  let once = wall () -. t0 in
  let runs = ref 1 and total = ref once in
  while !runs < min_runs || !total < min_total do
    let t0 = wall () in
    f ();
    total := !total +. (wall () -. t0);
    incr runs
  done;
  !total /. float_of_int !runs

(* Best-of-[rounds] {!time_wall} of [a] and of [b], alternating the two
   so that drift (frequency scaling, competing load) hits both alike. *)
let interleaved ~rounds ~min_total ~min_runs a b =
  let best = ref (time_wall ~min_total ~min_runs a, time_wall ~min_total ~min_runs b) in
  for _ = 2 to rounds do
    let ta = time_wall ~min_total ~min_runs a in
    let tb = time_wall ~min_total ~min_runs b in
    let ba, bb = !best in
    best := (Float.min ba ta, Float.min bb tb)
  done;
  !best

let seconds s = Printf.sprintf "%.4f" s

let header title =
  let rule = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n" title rule
