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
}

exception Interrupted = Split_loop.Interrupted

module Pool = Blitz_parallel.Pool
module Obs = Blitz_obs.Obs
module Perf = Blitz_obs.Perf

let m_ranks =
  Obs.Metrics.counter ~help:"Lattice ranks whose split loops ran on a domain pool"
    "blitz_parallel_ranks_total"

(* Chunks per rank per domain on a pool.  More chunks give the dynamic
   balancer and the stop flag finer granularity; fewer chunks mean fewer
   atomic claims and fewer false-sharing boundaries on the table
   columns.  4 keeps both costs invisible. *)
let chunk_factor = 4

(* The pass in two sweeps.

   Sweep 1 ([Split_loop.sweep]) runs on the calling domain in increasing
   subset order, which puts every proper subset first (Section 4.2).  It
   computes each subset's properties and decides §6.4's skip test, which
   reads only those: a skipped subset is settled on the spot, a kept one
   goes on its rank's list with its split bound parked in its cost slot.
   So the subsets that need the O(3^n) work are known before any split
   runs.

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
   tolerate calls from any domain ([Budget.interrupt] does).

   Each sweep feeds its own rate instrument: ns per subset over sweep 1
   (with the singleton rows), ns per split iteration over sweep 2.  An
   escaping exception skips the observation. *)
let run ~graph_opt ?pool ?arena ?counters ?(threshold = Float.infinity) ?interrupt model
    catalog =
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
  let lists = match arena with Some a -> Arena.index a | None -> Live_index.create () in
  Live_index.start lists ~n ~index:(Split_loop.scan_applies model ~threshold);
  let stop = Atomic.make false and mask = Split_loop.probe_mask in
  (* The split loops of entries [start, start + len) of rank k's list,
     counted into [c]; a probe that fires sets [stop] and ends the
     range. *)
  let split_range c ~k ~start ~len =
    let i = ref 0 in
    while !i < len do
      if polling && !i land mask = mask && (Atomic.get stop || probe ()) then begin
        Atomic.set stop true;
        i := len
      end
      else begin
        let m = start + !i in
        let s = Live_index.get lists k m in
        Split_loop.split ~index:lists tbl model c s;
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
  Perf.timed_rate Perf.split_loop_ns_per_subset
    ~events:(fun () -> ctr.subsets)
    (fun () ->
      Split_loop.init_singletons tbl model catalog;
      Split_loop.sweep ~graph:graph_opt ~interrupt tbl model ctr ~threshold lists);
  Perf.timed_rate Perf.split_loop_ns_per_iter
    ~events:(fun () -> ctr.loop_iters)
    (fun () -> Fun.protect ~finally:merge sweep2);
  { table = tbl; counters = ctr; catalog; graph; model; threshold }

let optimize_join ?pool ?arena ?counters ?threshold ?interrupt model catalog graph =
  run ~graph_opt:(Some graph) ?pool ?arena ?counters ?threshold ?interrupt model catalog

let optimize_product ?pool ?arena ?counters ?threshold ?interrupt model catalog =
  run ~graph_opt:None ?pool ?arena ?counters ?threshold ?interrupt model catalog

let full_set t = Dp_table.full_set t.table

let best_cost t = Dp_table.cost t.table (full_set t)

let feasible t = Float.is_finite (best_cost t)

let best_plan t = Dp_table.extract_plan t.table (full_set t)

let best_plan_exn t =
  match best_plan t with
  | Some plan -> plan
  | None -> failwith "Blitzsplit.best_plan_exn: no plan under the given threshold"

let subplan t s = Dp_table.extract_plan t.table s
