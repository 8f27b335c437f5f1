module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Arena = Blitz_core.Arena
module Counters = Blitz_core.Counters
module Blitzsplit = Blitz_core.Blitzsplit
module Pool = Blitz_parallel.Pool
module Obs = Blitz_obs.Obs
module Plan_cache = Blitz_cache.Plan_cache
module Fingerprint = Blitz_cache.Fingerprint

let m_latency =
  Obs.Metrics.histogram ~help:"Engine.optimize wall-clock seconds per query"
    "blitz_engine_optimize_seconds"

let m_plan_cost =
  Obs.Metrics.histogram ~help:"Cost of the chosen plan under the session model"
    "blitz_engine_plan_cost"

let m_queries =
  Obs.Metrics.counter ~help:"Queries optimized through engine sessions"
    "blitz_engine_queries_total"

let g_arena_resident =
  Obs.Metrics.gauge ~help:"Resident DP-table bytes of the most recently used session arena"
    "blitz_arena_resident_bytes"

let g_arena_acquires =
  Obs.Metrics.gauge ~help:"Table acquisitions by the most recently used session arena"
    "blitz_arena_acquires"

let g_arena_grows =
  Obs.Metrics.gauge ~help:"Buffer growths (vs pooled reuses) of the most recently used arena"
    "blitz_arena_grows"

let m_cache_lookup =
  Obs.Metrics.histogram ~help:"Plan-cache fingerprint + lookup wall-clock seconds"
    "blitz_cache_lookup_seconds"

let recommended_domains () = Domain.recommended_domain_count ()

(* Below this size the rank barriers and chunk scheduling eat most of
   what spreading the split loops buys.  BENCH_parallel.json, plain
   product passes on two cores, has two domains at 0.95x for n = 12
   (a 2 ms pass, the noisiest row), 1.23x at n = 13 and 1.19x at
   n = 14, against 1.10x at n = 15 and 1.24-1.86x from there to
   n = 20.  Smaller n gain a little on this host, but no benchmark
   workload runs an in-process query below n = 18, so a lower crossover
   cannot be sized against the repository benchmark.  Sessions hand out
   their pool only from here up, and n = 14 keeps the CI parallel smoke
   (n = 15) on the pool. *)
let default_crossover_n = 14

type t = {
  model : Cost_model.t;
  num_domains : int;
  seed : int;
  arena : Arena.t;
  cache : Plan_cache.t option;
  (* One fingerprint workspace per session: [optimize_many] batches
     canonicalize every query through it without allocating. *)
  scratch : Fingerprint.scratch;
  digest : int;  (* Fingerprint.model_digest of the session model *)
  mutable pool : Pool.t option;
  mutable closed : bool;
}

let create ?(model = Blitz_cost.Cost_model.kdnl)
    ?(num_domains = recommended_domains ()) ?(seed = 1) ?cache () =
  if num_domains < 1 || num_domains > 128 then
    invalid_arg (Printf.sprintf "Engine.create: num_domains %d outside [1, 128]" num_domains);
  {
    model;
    num_domains;
    seed;
    arena = Arena.create ();
    cache;
    scratch = Fingerprint.create_scratch ();
    digest = (match cache with Some _ -> Fingerprint.model_digest model | None -> 0);
    pool = None;
    closed = false;
  }

let num_domains t = t.num_domains
let arena t = t.arena
let cache t = t.cache

(* The pool is spawned by the first query that runs on it, not at
   [create]: single-domain sessions, and sessions that only ever see
   queries below the crossover, never pay the Domain.spawn cost, and a
   closed session never spawns one again.  When the runtime refuses the
   domains (its 128-domain cap), the query runs on the calling domain,
   with the same bits; the next large query tries again. *)
let pool t ~n =
  if t.closed || t.num_domains <= 1 || n < default_crossover_n then None
  else
    match t.pool with
    | Some _ as p -> p
    | None -> (
      match Pool.create ~num_domains:t.num_domains with
      | p ->
        t.pool <- Some p;
        t.pool
      | exception Failure _ -> None)

let close t =
  (match t.pool with Some p -> Pool.shutdown p | None -> ());
  t.pool <- None;
  Arena.clear t.arena;
  t.closed <- true

let with_session ?model ?num_domains ?seed ?cache f =
  let t = create ?model ?num_domains ?seed ?cache () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* The ctx carries [pool t ~n], and so the one decision whether the
   query's split loops run on a pool: the session's width and the
   crossover are read here and nowhere else. *)
let ctx ?interrupt ?threshold ?counters ~n t =
  Registry.ctx ~arena:t.arena ?pool:(pool t ~n) ~seed:t.seed ?interrupt ?threshold ?counters
    t.model

let counters t = Arena.counters t.arena

(* Post-query bookkeeping; [Metrics.enabled] gates the gauge reads so a
   disabled process pays one branch, not four [Arena] calls. *)
let record_outcome t (o : Registry.outcome) =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_queries;
    if Float.is_finite o.Registry.cost then Obs.Metrics.observe m_plan_cost o.Registry.cost;
    Obs.Metrics.set g_arena_resident (float_of_int (Arena.resident_bytes t.arena));
    Obs.Metrics.set g_arena_acquires (float_of_int (Arena.acquires t.arena));
    Obs.Metrics.set g_arena_grows (float_of_int (Arena.grows t.arena))
  end

(* ---- plan-cache participation ----

   A session with a cache consults it for any optimizer whose registry
   entry promises exactness over the full plan space (a cached entry
   must mean the same thing no matter which query stored it), and only
   when the caller supplied no explicit threshold (an explicit
   threshold makes the outcome caller-dependent).  A hit skips the
   optimizer entirely; a miss runs it cold and stores the completed
   optimum. *)

let digest_for t m = if m == t.model then t.digest else Fingerprint.model_digest m

(* A tenant tag partitions the cache: the tag is folded into the entry
   key, so two tenants sharing one cache (and one engine session pool)
   can never be served each other's plans.  "@" cannot appear in a
   registry name, so tagged and untagged keys cannot collide. *)
let cache_key ?cache_tag optimizer =
  match cache_tag with None -> optimizer | Some tag -> optimizer ^ "@" ^ tag

(* The one cache round: fingerprint [p] into the session scratch, look
   it up under [key], and on a miss store the plan and cost [miss]
   names from that same fingerprint, unless the cost is not finite.
   [miss] runs no cache function of this session, so the scratch still
   holds [p]'s canonical form when the store comes. *)
let cache_round t c ~model ~key (p : Registry.problem) ~hit ~miss =
  let found =
    Obs.Metrics.time m_cache_lookup (fun () ->
        Fingerprint.compute t.scratch ~model_digest:(digest_for t model) p.Registry.catalog
          p.Registry.graph;
        Plan_cache.find c t.scratch ~optimizer:key)
  in
  match found with
  | Some h -> hit h
  | None ->
      let result, answer = miss () in
      (match answer with
      | Some (plan, cost) when Float.is_finite cost ->
          Plan_cache.store c t.scratch ~optimizer:key ~plan ~cost
      | _ -> ());
      result

let cache_around ?model ?cache_tag t ~optimizer p ~hit ~miss =
  match t.cache with
  | None -> fst (miss ())
  | Some c ->
      cache_round t c
        ~model:(Option.value ~default:t.model model)
        ~key:(cache_key ?cache_tag optimizer) p ~hit ~miss

let cache_find ?cache_tag t ~optimizer p =
  cache_around ?cache_tag t ~optimizer p ~hit:Option.some ~miss:(fun () -> (None, None))

(* Every entry was stored from one unthresholded pass: caching is
   bypassed under an explicit threshold. *)
let hit_outcome ctr (h : Plan_cache.hit) =
  {
    Registry.plan = Some h.Plan_cache.plan;
    cost = h.Plan_cache.cost;
    passes = 1;
    final_threshold = infinity;
    table = None;
    counters = Some ctr;  (* freshly reset: a hit runs zero splits *)
    note =
      Some (if h.Plan_cache.rebased then "plan cache: hit (rebased)" else "plan cache: hit");
  }

(* Run one problem through the entry, going through the cache when the
   session has one and the entry's result may be cached. *)
let run_entry t (entry : Registry.entry) ~optimizer ?interrupt ?threshold ?growth ~ctr
    problem =
  let run () =
    let n = Catalog.n problem.Registry.catalog in
    let ctx = ctx ?interrupt ?threshold ~counters:ctr ~n t in
    entry.Registry.optimize { ctx with Registry.growth } problem
  in
  match t.cache with
  | Some c when entry.Registry.caps.Registry.exact && Option.is_none threshold ->
      cache_round t c ~model:t.model ~key:(cache_key optimizer) problem
        ~hit:(hit_outcome ctr)
        ~miss:(fun () ->
          let o = run () in
          (o, Option.map (fun plan -> (plan, o.Registry.cost)) o.Registry.plan))
  | Some _ | None -> run ()

let optimize ?(optimizer = "exact") ?threshold ?growth t problem =
  if t.closed then invalid_arg "Engine.optimize: session is closed";
  let entry = Registry.find_exn optimizer in
  let ctr = Arena.counters t.arena in
  Counters.reset ctr;
  let o =
    Obs.span "engine.optimize" ~attrs:[ ("optimizer", optimizer) ] (fun () ->
        Obs.Metrics.time m_latency (fun () ->
            run_entry t entry ~optimizer ?threshold ?growth ~ctr problem))
  in
  record_outcome t o;
  o

let optimize_many ?(optimizer = "exact") ?interrupt t problems =
  if t.closed then invalid_arg "Engine.optimize_many: session is closed";
  (* One registry lookup for the whole batch — per-query work is a
     counter reset, a fingerprint into the session scratch (cache
     sessions), a ctx sized to the query, and the optimizer itself. *)
  let entry = Registry.find_exn optimizer in
  let ctr = Arena.counters t.arena in
  let completed = ref [] in
  Obs.span "engine.optimize_many" ~attrs:[ ("optimizer", optimizer) ] (fun () ->
      try
        Seq.iter
          (fun p ->
            Counters.reset ctr;
            let o =
              Obs.Metrics.time m_latency (fun () -> run_entry t entry ~optimizer ?interrupt ~ctr p)
            in
            record_outcome t o;
            (* The table is a view of the arena's buffer, overwritten by the
               next query; the counters record is reused and reset.  Detach
               both so every element of the batch result stands on its own. *)
            completed :=
              {
                o with
                Registry.table = None;
                counters = Option.map Counters.copy o.Registry.counters;
              }
              :: !completed)
          problems
      with Blitzsplit.Interrupted -> ());
  List.rev !completed
