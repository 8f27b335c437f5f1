module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

type t = {
  table : Dp_table.t;
  counters : Counters.t;
  catalog : Catalog.t;
  graph : Join_graph.t;
  model : Cost_model.t;
  threshold : float;
  multiway : Multiway.t option;
}

exception Interrupted

module Pool = Blitz_parallel.Pool
module Obs = Blitz_obs.Obs

let m_ranks =
  Obs.Metrics.counter ~help:"Lattice ranks whose split loops ran on a domain pool"
    "blitz_parallel_ranks_total"

(* How often the cancellation probe fires: every [probe_mask + 1]
   subsets of a sweep, on every domain.  Subsets near the top of the
   lattice carry split loops of up to [2^(n-1)] iterations each, so a
   64-subset stride keeps the worst-case overshoot past a deadline small
   while the probe itself stays invisible next to the [O(3^n)] loop. *)
let probe_mask = 63

(* Chunks per rank per domain on a pool.  More chunks give the dynamic
   balancer and the stop flag finer granularity; fewer chunks mean fewer
   atomic claims and fewer false-sharing boundaries on the table
   columns.  4 keeps both costs invisible. *)
let chunk_factor = 4

(* One timed region feeds both rate instruments: ns per subset (the
   historical unit) and ns per split iteration (the O(3^n) unit that
   `bench split` gates).  An escaping exception skips the observation. *)
let timed_pass (ctr : Counters.t) pass =
  if not (Blitz_obs.Metrics.enabled ()) then pass ()
  else begin
    let subs0 = ctr.subsets and iters0 = ctr.loop_iters in
    let t0 = Blitz_obs.Perf.now_s () in
    let result = pass () in
    let elapsed_s = Blitz_obs.Perf.now_s () -. t0 in
    Blitz_obs.Perf.observe_rate Blitz_obs.Perf.split_loop_ns_per_subset ~elapsed_s
      ~events:(ctr.subsets - subs0);
    Blitz_obs.Perf.observe_rate Blitz_obs.Perf.split_loop_ns_per_iter ~elapsed_s
      ~events:(ctr.loop_iters - iters0);
    result
  end

(* The pass in two sweeps.

   Sweep 1 runs on the calling domain in increasing subset order, which
   puts every proper subset first (Section 4.2).  It computes each
   subset's properties and decides §6.4's skip test, which reads only
   those ([Split_loop.seed]): a skipped subset is settled on the spot, a
   kept one goes on its rank's list with its split bound parked in its
   cost slot.  So the subsets that need the O(3^n) work are known before
   any split runs.

   Sweep 2 runs the kept subsets' split loops rank by rank.  A subset of
   rank k reads only subsets of lower rank, all finished when rank k
   starts, and writes only its own slots, so the subsets of one rank may
   run in any order and on any domain: on a pool each rank is cut into
   contiguous chunks of its list, balanced dynamically, with a barrier
   after it.  Every slot therefore holds the same bits at every width,
   and the per-domain counters, sums of per-subset events, add up to the
   same totals.

   Interruption: the probe is polled before the table is touched, then
   every 64 subsets of sweep 1, every 64 kept subsets each domain runs,
   and at every rank barrier.  In sweep 2 a [true] return trips a shared
   stop flag, the remaining chunks bail at their next check, and
   [Interrupted] is raised after the barrier; the probe must therefore
   tolerate calls from any domain ([Budget.interrupt] does). *)
let run ~graph_opt ?pool ?arena ?counters ?(threshold = Float.infinity) ?interrupt
    ?(multiway = false) model catalog =
  if threshold <= 0.0 then invalid_arg "Blitzsplit: threshold must be positive";
  let n = Catalog.n catalog in
  let graph =
    match graph_opt with
    | Some g ->
      if Join_graph.n g <> n then
        invalid_arg
          (Printf.sprintf "Blitzsplit: graph over %d relations, catalog has %d" (Join_graph.n g) n);
      g
    | None -> Join_graph.no_predicates ~n
  in
  let ctr = match counters with Some c -> c | None -> Counters.create () in
  ctr.passes <- ctr.passes + 1;
  let probe = match interrupt with Some stop -> stop | None -> fun () -> false in
  let polling = Option.is_some interrupt in
  if polling && probe () then raise Interrupted;
  let with_pi_fan = Option.is_some graph_opt in
  let tbl =
    match arena with
    | Some a -> Arena.acquire a ~with_pi_fan n
    | None -> Dp_table.create ~with_pi_fan n
  in
  let mw =
    match graph_opt with
    | Some g when multiway -> Some (Multiway.create catalog g)
    | Some _ | None -> None
  in
  (* The completion bound and the live-operand scan hold for binary
     plans only: n-ary inputs are priced by cardinality, not by aux, and
     the scan's left operands are binary inputs.  Multiway passes also
     stay off the pool: [Multiway.consider] records covers in a table
     that two domains may not share. *)
  let binary = Option.is_none mw in
  let completion = binary && Split_loop.completion_applies model ~threshold in
  let lists = match arena with Some a -> Arena.index a | None -> Live_index.create () in
  Live_index.start lists ~n ~index:(binary && Split_loop.scan_applies model ~threshold);
  let pool = if binary then pool else None in
  let last = (1 lsl n) - 1 in
  let sweep1 () =
    match graph_opt with
    | Some _ ->
      for s = 3 to last do
        if polling && s land probe_mask = 0 && probe () then raise Interrupted;
        if s land (s - 1) <> 0 then begin
          Split_loop.compute_properties_join tbl model graph s;
          if Split_loop.seed ~completion tbl model ctr ~threshold s then Live_index.keep lists s
          else match mw with Some w -> Multiway.consider w tbl ctr ~threshold s | None -> ()
        end
      done
    | None ->
      for s = 3 to last do
        if polling && s land probe_mask = 0 && probe () then raise Interrupted;
        if s land (s - 1) <> 0 then begin
          Split_loop.compute_properties_product tbl model s;
          if Split_loop.seed ~completion tbl model ctr ~threshold s then Live_index.keep lists s
        end
      done
  in
  let stop = Atomic.make false in
  (* The split loops of entries [start, start + len) of rank k's list,
     counted into [c]; a probe that fires sets [stop] and ends the
     range. *)
  let split_range c ~k ~start ~len =
    let i = ref 0 in
    while !i < len do
      if polling && !i land probe_mask = probe_mask && (Atomic.get stop || probe ()) then begin
        Atomic.set stop true;
        i := len
      end
      else begin
        let m = start + !i in
        let s = Live_index.get lists k m in
        Split_loop.split ~index:lists tbl model c s;
        (match mw with Some w -> Multiway.consider w tbl c ~threshold s | None -> ());
        Live_index.stage lists tbl ~k ~m s;
        incr i
      end
    done
  in
  (* Worker 0 is the calling domain and counts into [ctr]; the other
     workers allocate their own counters on first touch, merged after
     the last barrier. *)
  let workers = match pool with Some p -> Pool.num_domains p | None -> 1 in
  let per_domain = Array.make workers None in
  let domain_counters worker =
    if worker = 0 then ctr
    else
      match per_domain.(worker) with
      | Some c -> c
      | None ->
        let c = Counters.create () in
        per_domain.(worker) <- Some c;
        c
  in
  let sweep2 () =
    for k = 2 to n do
      let count = Live_index.length lists k in
      (match pool with
      | Some p when count > 0 ->
        let chunks = min count (workers * chunk_factor) in
        let base = count / chunks and rem = count mod chunks in
        Obs.Metrics.incr m_ranks;
        Obs.span "parallel.rank" ~attrs:[ ("k", string_of_int k) ] (fun () ->
            Pool.run p ~chunks (fun ~worker c ->
                if not (Atomic.get stop) then
                  split_range (domain_counters worker) ~k
                    ~start:((c * base) + min c rem)
                    ~len:(base + if c < rem then 1 else 0)))
      | Some _ | None -> split_range ctr ~k ~start:0 ~len:count);
      Live_index.close_rank lists k;
      if polling && (Atomic.get stop || probe ()) then raise Interrupted
    done
  in
  let merge () =
    Array.iter (function Some c -> Counters.merge_into ~from:c ~into:ctr | None -> ()) per_domain
  in
  timed_pass ctr (fun () ->
      Split_loop.init_singletons tbl model catalog;
      sweep1 ();
      Fun.protect ~finally:merge sweep2);
  { table = tbl; counters = ctr; catalog; graph; model; threshold; multiway = mw }

let optimize_join ?pool ?arena ?counters ?threshold ?interrupt ?multiway model catalog graph =
  run ~graph_opt:(Some graph) ?pool ?arena ?counters ?threshold ?interrupt ?multiway model
    catalog

let optimize_product ?pool ?arena ?counters ?threshold ?interrupt model catalog =
  run ~graph_opt:None ?pool ?arena ?counters ?threshold ?interrupt model catalog

let full_set t = Dp_table.full_set t.table

let best_cost t = Dp_table.cost t.table (full_set t)

let feasible t = Float.is_finite (best_cost t)

let best_plan t = Multiway.extract_plan ?multiway:t.multiway t.table (full_set t)

let best_plan_exn t =
  match best_plan t with
  | Some plan -> plan
  | None -> failwith "Blitzsplit.best_plan_exn: no plan under the given threshold"

let subplan t s = Multiway.extract_plan ?multiway:t.multiway t.table s
