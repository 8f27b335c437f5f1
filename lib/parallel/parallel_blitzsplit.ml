module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Blitzsplit = Blitz_core.Blitzsplit
module Dp_table = Blitz_core.Dp_table
module Split_loop = Blitz_core.Split_loop
module Counters = Blitz_core.Counters
module Arena = Blitz_core.Arena
module Live_index = Blitz_core.Live_index
module Obs = Blitz_obs.Obs

let m_ranks =
  Obs.Metrics.counter ~help:"Lattice ranks processed by the rank-parallel optimizer"
    "blitz_parallel_ranks_total"

let recommended_domains () = Domain.recommended_domain_count ()

(* Oversubscription: chunks per rank per domain.  More chunks give the
   dynamic balancer and the stop flag finer granularity; fewer chunks
   mean fewer atomic claims and fewer false-sharing boundaries on the
   table columns.  4 keeps both costs invisible. *)
let chunk_factor = 4

(* Same cancellation-probe cadence as the sequential optimizer: every 64
   subsets processed by each domain (see [Blitzsplit.probe_mask]). *)
let probe_mask = 63

(* Gosper's hack: the next larger integer with the same popcount. *)
let gosper_next s =
  let c = s land (-s) in
  let r = s + c in
  r lor (((s lxor r) lsr 2) / c)

(* binom.(c).(j) = C(c, j); rows 0..n, columns 0..n. *)
let binomial_table n =
  let t = Array.make_matrix (n + 1) (n + 1) 0 in
  for c = 0 to n do
    t.(c).(0) <- 1;
    for j = 1 to c do
      t.(c).(j) <- t.(c - 1).(j - 1) + t.(c - 1).(j)
    done
  done;
  t

(* The m-th (0-based) k-subset in increasing bitset-integer order, which
   for fixed popcount is colexicographic order — exactly the order
   Gosper's hack enumerates.  Standard combinadic unranking: the top
   element is the largest c with C(c, k) <= m, and so on down. *)
let unrank_subset binom ~k m =
  let s = ref 0 in
  let m = ref m in
  for j = k downto 1 do
    let c = ref (j - 1) in
    while binom.(!c + 1).(j) <= !m do
      incr c
    done;
    s := !s lor (1 lsl !c);
    m := !m - binom.(!c).(j)
  done;
  !s

(* Rank-parallel DP.  Every subset of cardinality k depends only on
   strictly smaller subsets: compute_properties reads the fan and
   cardinality of proper subsets (ranks 2 and k-1), and the split loop
   reads cost/card/aux of proper subsets (ranks < k).  So processing the
   lattice rank by rank, with a full barrier between ranks, computes
   byte-for-byte the values the sequential increasing-integer order
   computes — each entry is a pure function of lower-rank entries, and
   the per-subset split scan itself is deterministic.  Within a rank,
   chunks are contiguous colex ranges: writes from different domains
   land in disjoint, mostly contiguous index intervals of the shared
   columns, so cross-domain cache-line traffic is confined to the
   O(chunks) boundary lines.  Counters are per-domain records allocated
   *inside* each domain (first touch) and merged at the end — no shared
   hot words at all. *)
let parallel_run pool ~graph_opt ~arena ~ctr ~threshold ~interrupt model catalog graph =
  let n = Catalog.n catalog in
  let with_pi_fan = Option.is_some graph_opt in
  let tbl =
    (* The coordinator resets/acquires before workers run and reads after
       the final barrier — [Pool.run]'s fork/join ordering makes the
       buffer safely visible to every domain. *)
    match arena with
    | Some a -> Arena.acquire a ~with_pi_fan n
    | None -> Dp_table.create ~with_pi_fan n
  in
  Split_loop.init_singletons tbl model catalog;
  let workers = Pool.num_domains pool in
  let per_domain = Array.make workers None in
  let domain_counters worker =
    match per_domain.(worker) with
    | Some c -> c
    | None ->
      let c = Counters.create () in
      per_domain.(worker) <- Some c;
      c
  in
  let stop_flag = Atomic.make false in
  let poll, probe =
    match interrupt with None -> (false, fun () -> false) | Some f -> (true, f)
  in
  let compute =
    match graph_opt with
    | Some _ -> fun s -> Split_loop.compute_properties_join tbl model graph s
    | None -> fun s -> Split_loop.compute_properties_product tbl model s
  in
  let binom = binomial_table n in
  (* This driver plans binary nodes only, so the completion bound holds
     whenever the model and threshold admit it. *)
  let completion = Split_loop.completion_applies model ~threshold in
  (* The live-operand index: each worker records every subset of the
     rank in its own slot, and the coordinator compacts the rank after
     the barrier, before any higher rank reads it.  Rank 1 is complete
     from the start. *)
  let index =
    if Split_loop.scan_applies model ~threshold then begin
      let idx = match arena with Some a -> Arena.index a | None -> Live_index.create () in
      Live_index.start idx ~n ~all_singletons:true;
      idx
    end
    else Live_index.off
  in
  let merge_counters () =
    Array.iter
      (function Some c -> Counters.merge_into ~from:c ~into:ctr | None -> ())
      per_domain
  in
  (try
     for k = 2 to n do
       let count = binom.(n).(k) in
       let chunks = min count (workers * chunk_factor) in
       let base = count / chunks and rem = count mod chunks in
       Obs.Metrics.incr m_ranks;
       Obs.span "parallel.rank" ~attrs:[ ("k", string_of_int k) ] @@ fun () ->
       Pool.run pool ~chunks (fun ~worker c ->
           if not (Atomic.get stop_flag) then begin
             let start = (c * base) + min c rem in
             let len = base + if c < rem then 1 else 0 in
             let dctr = domain_counters worker in
             let s = ref (unrank_subset binom ~k start) in
             let i = ref 0 in
             let live = ref true in
             while !live && !i < len do
               if poll && !i land probe_mask = probe_mask then
                 if Atomic.get stop_flag then live := false
                 else if probe () then begin
                   Atomic.set stop_flag true;
                   live := false
                 end;
               if !live then begin
                 compute !s;
                 Split_loop.find_best_split_with ~completion ~index tbl model dctr ~threshold !s;
                 Live_index.stage index tbl ~k ~m:(start + !i) !s;
                 s := gosper_next !s;
                 incr i
               end
             done
           end);
       Live_index.close_rank index k;
       (* Rank barrier: workers are parked, the table holds every rank
          <= k.  The coordinator polls the deadline here too, so even a
          probe-free chunk schedule cannot overshoot by more than one
          rank's chunks. *)
       if poll && not (Atomic.get stop_flag) && probe () then Atomic.set stop_flag true;
       if Atomic.get stop_flag then raise Blitzsplit.Interrupted
     done
   with exn ->
     merge_counters ();
     raise exn);
  merge_counters ();
  tbl

(* Below this size the rank barriers and chunk scheduling eat most of
   what spreading the split loops buys.  BENCH_parallel.json, on two
   cores, has two domains at 0.85x for n = 12 (a 1.1 ms sequential pass)
   and 1.12x at n = 13, against 1.20x at n = 14 and 1.55-1.91x from
   there to n = 20.  A lower crossover would likely gain on multi-core hosts
   at n = 13, but no benchmark workload runs an in-process query below
   n = 18, so the move cannot be sized.  Engine sessions hand out their
   pool only from here up, and n = 14 keeps the CI parallel smoke
   (n = 15) on the parallel path. *)
let default_crossover_n = 14

(* A pool is the whole decision: with one the pass runs rank-parallel
   on it, at any n; without one it is the sequential optimizer.  Callers
   that want the crossover get it from the session that hands out the
   pool ([Engine.pool]). *)
let run ?pool ~graph_opt ?arena ?counters ?(threshold = Float.infinity) ?interrupt model catalog =
  match pool with
  | None -> (
    match graph_opt with
    | Some g -> Blitzsplit.optimize_join ?arena ?counters ~threshold ?interrupt model catalog g
    | None -> Blitzsplit.optimize_product ?arena ?counters ~threshold ?interrupt model catalog)
  | Some pool ->
    if threshold <= 0.0 then invalid_arg "Parallel_blitzsplit: threshold must be positive";
    let n = Catalog.n catalog in
    let graph =
      match graph_opt with
      | Some g ->
        if Join_graph.n g <> n then
          invalid_arg
            (Printf.sprintf "Parallel_blitzsplit: graph over %d relations, catalog has %d"
               (Join_graph.n g) n);
        g
      | None -> Join_graph.no_predicates ~n
    in
    let ctr = match counters with Some c -> c | None -> Counters.create () in
    ctr.Counters.passes <- ctr.Counters.passes + 1;
    (* The per-domain counters are merged into [ctr] before parallel_run
       returns, so the rates are aggregate wall time over aggregate
       events: they improve with parallelism, deliberately. *)
    let table =
      Blitzsplit.timed_pass ctr (fun () ->
          parallel_run pool ~graph_opt ~arena ~ctr ~threshold ~interrupt model catalog graph)
    in
    (* The rank-parallel driver never plans multiway nodes (the registry
       runs the sequential optimizer when both are requested). *)
    { Blitzsplit.table; counters = ctr; catalog; graph; model; threshold; multiway = None }

let optimize_join ?pool ?arena ?counters ?threshold ?interrupt model catalog graph =
  run ?pool ~graph_opt:(Some graph) ?arena ?counters ?threshold ?interrupt model catalog

let optimize_product ?pool ?arena ?counters ?threshold ?interrupt model catalog =
  run ?pool ~graph_opt:None ?arena ?counters ?threshold ?interrupt model catalog
