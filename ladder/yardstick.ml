(* The yardstick: a fixed piece of work that belongs to the bench, not to
   the library under test, timed between a run's requests.

   The machines the benchmark runs on are shared, and other tenants slow
   the same code by up to 2x, in stretches that change within a second.
   Dividing each request's latency by the yardstick's time around it
   takes most of that out, while a change to the library moves the
   latency and not the yardstick.  The work is the paper's subset DP in
   its plainest form (naive cost model, a chain's selectivities, one
   interleaved cost/cardinality column), so it loads the processor and
   caches the way the optimizer's own DP does; its size decides whether
   its table stays in cache. *)

type t = {
  n : int;
  pair : float array;  (* cost, cardinality of each subset *)
  best_lhs : int array;
  every_s : float;  (* least time between two timings *)
  mutable last_at : float;
  mutable times : float list;  (* seconds, latest first *)
}

let create ~n ~every_s =
  {
    n;
    pair = Array.make (2 lsl n) 0.;
    best_lhs = Array.make (1 lsl n) 0;
    every_s;
    last_at = neg_infinity;
    times = [];
  }

(* The 13-relation yardstick's time, in seconds, on an idle core of the
   machine the benchmark was defined on (2 vCPUs of an x86-64 Xeon VM,
   where 400 back-to-back timings had a median of 3.1-3.2 ms); set-up
   times are reported at that speed. *)
let reference_s = 0.003

(* The chain's optimum over [n] relations, by dynamic programming over
   every subset, trying every split; returns the root's best left
   operand. *)
let dp t =
  let pair = t.pair and best_lhs = t.best_lhs in
  let size = 1 lsl t.n in
  for i = 0 to t.n - 1 do
    pair.(2 * (1 lsl i)) <- 0.;
    pair.((2 * (1 lsl i)) + 1) <- 100. +. float_of_int i
  done;
  for s = 1 to size - 1 do
    if s land (s - 1) <> 0 then begin
      let low = s land -s in
      let rest = s lxor low in
      let joined = ((low lsl 1) lor (low lsr 1)) land rest in
      let sel = if joined = 0 then 1. else if joined land (joined - 1) = 0 then 0.01 else 1e-4 in
      let card = pair.((2 * rest) + 1) *. pair.((2 * low) + 1) *. sel in
      pair.((2 * s) + 1) <- card;
      let best = ref infinity and best_l = ref 0 in
      let l = ref low in
      while !l <> s do
        let c = pair.(2 * !l) +. pair.(2 * (s lxor !l)) in
        if c < !best then begin
          best := c;
          best_l := !l
        end;
        l := (!l - s) land s
      done;
      pair.(2 * s) <- !best +. card;
      best_lhs.(s) <- !best_l
    end
  done;
  best_lhs.(size - 1)

(* Time the work once; returns its seconds. *)
let time t =
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (dp t));
  t.last_at <- Clock.now ();
  let s = t.last_at -. t0 in
  t.times <- s :: t.times;
  s

(* Whether [every_s] has passed since the last timing. *)
let due t = Clock.now () -. t.last_at >= t.every_s

let times t = Array.of_list (List.rev t.times)
