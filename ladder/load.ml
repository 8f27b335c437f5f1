(* The untraced runs: each workload's load generator, its set-up, and the
   raw samples its metrics are computed from.

   Load comes from this process's main thread over loopback connections
   to one-worker servers (dp-large calls the library in process
   instead).  Set-up is repeated [setup_reps] times and the last one is
   used, so set-up time is a median rather than one noisy sample.
   Latencies are kept per query class (Query.class_key), whose queries
   cost the same.  The yardstick is timed between requests, and each
   latency is also kept over the mean of the yardstick's two timings
   around it, so the machine's speed at that moment divides out. *)

module Catalog = Blitz_catalog.Catalog
module Plan = Blitz_plan.Plan
module Plan_cache = Blitz_cache.Plan_cache
module Engine = Blitz_engine.Engine
module Guard = Blitz_guard.Guard
module Budget = Blitz_guard.Budget
module Degrade = Blitz_guard.Degrade
module Arena = Blitz_core.Arena

type kind = Dp_cold | Dp_large | Hot_repeat

let kinds = [ Dp_cold; Dp_large; Hot_repeat ]
let name = function Dp_cold -> "dp-cold" | Dp_large -> "dp-large" | Hot_repeat -> "hot-repeat"
let of_name s = List.find_opt (fun k -> name k = s) kinds

(* The serving defaults dp-large reuses in process (Server.config's). *)
let server_table_bytes = 256 * 1024 * 1024
let default_cache_bytes = 4 * 1024 * 1024

(* dp-cold stores every answer and never hits.  Its servers' caches are
   small enough that every run fills them within its first quarter, so
   their footprint, and with it peak_rss_mb, does not depend on how many
   requests the machine's speed allowed. *)
let dp_cold_cache_bytes = 256 * 1024
let setup_reps = 15

(* Latency samples in a fixed amount of memory, so that the bench's own
   buffers do not move peak_rss_mb with the request count: once [cap]
   samples are held, every other one is dropped and from then on only
   every other arrival is kept, so the samples held stay an evenly spaced
   subset of the run. *)
module Samples = struct
  type t = { a : float array; mutable len : int; mutable stride : int; mutable skip : int }

  let create cap = { a = Array.make cap 0.; len = 0; stride = 1; skip = 0 }

  let push v x =
    if v.skip > 0 then v.skip <- v.skip - 1
    else begin
      if v.len = Array.length v.a then begin
        for i = 0 to (v.len / 2) - 1 do
          v.a.(i) <- v.a.(2 * i)
        done;
        v.len <- v.len / 2;
        v.stride <- 2 * v.stride
      end;
      v.a.(v.len) <- x;
      v.len <- v.len + 1;
      v.skip <- v.stride - 1
    end

  let to_array v = Array.sub v.a 0 v.len
end

external maxrss_kb : unit -> int = "ladder_maxrss_kb" [@@noalloc]

(* The process's peak resident set, in MiB, from getrusage, which needs
   no /proc.  Unlike /proc's VmHWM it also counts the image this process
   was exec'd from, so run.sh execs the binary straight from the shell
   rather than through dune. *)
let peak_rss_mb () =
  let kb = maxrss_kb () in
  if kb > 0 then float_of_int kb /. 1024. else nan

type run = {
  kind : kind;
  check : Check.t;
  mutable attempted : int;
  mutable window_s : float;  (* timed wall-clock seconds *)
  lat : Samples.t;  (* seconds, answered requests *)
  classes : (string, Samples.t) Hashtbl.t;  (* the same, by Query.class_key *)
  rel : (string, Samples.t) Hashtbl.t;  (* by class, over the yardstick around each *)
  mutable pending : (string * float) list;  (* class and latency, since the last timing *)
  mutable last_yard : float;  (* the yardstick's latest time *)
  mutable setup : float array;  (* seconds *)
  mutable setup_rel : float array;  (* each over the yardstick around it *)
  tiers : (string, int ref) Hashtbl.t;
  mutable hits : int;  (* answers served from the plan cache *)
  mutable cache : Plan_cache.stats option;  (* server cache, delta over the window *)
  mutable gc_minor_words : float;
  mutable gc_major : int;
  mutable peak_rss_mb : float;  (* at the end of the timed window *)
  yard : Yardstick.t;  (* timed between the window's requests *)
  setup_yard : Yardstick.t;  (* timed between set-ups *)
}

(* The yardstick's size follows the workload's own DP tables: 13
   relations (a 192 KiB table, in cache like dp-cold's), or for dp-large
   one fewer than its n (3 MiB at n = 17, out of L2 like its 14.7 MiB
   tables, and a third of a query's time).  dp-cold and hot-repeat time it
   at most every quarter second, a few percent of the window; dp-large
   after every query, since the machine's speed changes within one. *)
let yard_n = if Query.fast then 10 else 13

let yardstick = function
  | Dp_large -> Yardstick.create ~n:(Query.large_n - 1) ~every_s:0.
  | Dp_cold | Hot_repeat -> Yardstick.create ~n:yard_n ~every_s:0.25

let create kind =
  {
    kind;
    check = Check.create ();
    attempted = 0;
    window_s = 0.;
    lat = Samples.create 65536;
    classes = Hashtbl.create 64;
    rel = Hashtbl.create 64;
    pending = [];
    last_yard = nan;
    setup = [||];
    setup_rel = [||];
    tiers = Hashtbl.create 8;
    hits = 0;
    cache = None;
    gc_minor_words = 0.;
    gc_major = 0;
    peak_rss_mb = nan;
    yard = yardstick kind;
    setup_yard = Yardstick.create ~n:yard_n ~every_s:0.;
  }

let count_tier run tier =
  match Hashtbl.find_opt run.tiers tier with
  | Some c -> incr c
  | None -> Hashtbl.add run.tiers tier (ref 1)

let push_class tbl key x =
  match Hashtbl.find_opt tbl key with
  | Some v -> Samples.push v x
  | None ->
    let v = Samples.create 8192 in
    Samples.push v x;
    Hashtbl.add tbl key v

let latency run q dt =
  Samples.push run.lat dt;
  let key = Query.class_key q in
  push_class run.classes key dt;
  run.pending <- (key, dt) :: run.pending

(* Time the yardstick, and keep every latency recorded since its last
   timing over the mean of that timing and this one. *)
let time_yardstick run =
  let y = Yardstick.time run.yard in
  let around = if Float.is_nan run.last_yard then y else (run.last_yard +. y) /. 2. in
  List.iter (fun (key, dt) -> push_class run.rel key (dt /. around)) run.pending;
  run.pending <- [];
  run.last_yard <- y

let pace run = if Yardstick.due run.yard then time_yardstick run

(* Record one wire reply to [q]; [false] when it was not an answer. *)
let record run (q : Query.t) (result : (Wire.reply, string) result) =
  match result with
  | Error msg ->
    Check.error run.check msg;
    false
  | Ok r ->
    Check.add run.check q ~plan:r.Wire.plan ~cost:r.Wire.cost ~tier:r.Wire.tier;
    count_tier run r.Wire.tier;
    if r.Wire.from_cache then run.hits <- run.hits + 1;
    true

let stats_delta (a : Plan_cache.stats) (b : Plan_cache.stats) =
  {
    b with
    Plan_cache.hits = b.Plan_cache.hits - a.Plan_cache.hits;
    misses = b.Plan_cache.misses - a.Plan_cache.misses;
    insertions = b.Plan_cache.insertions - a.Plan_cache.insertions;
    evictions = b.Plan_cache.evictions - a.Plan_cache.evictions;
    rebases = b.Plan_cache.rebases - a.Plan_cache.rebases;
    shape_hits = b.Plan_cache.shape_hits - a.Plan_cache.shape_hits;
    band_hits = b.Plan_cache.band_hits - a.Plan_cache.band_hits;
  }

let add_stats acc d =
  match acc with
  | None -> Some d
  | Some (a : Plan_cache.stats) ->
    Some
      {
        Plan_cache.hits = a.hits + d.Plan_cache.hits;
        misses = a.misses + d.misses;
        insertions = a.insertions + d.insertions;
        evictions = a.evictions + d.evictions;
        rebases = a.rebases + d.rebases;
        shape_hits = a.shape_hits + d.shape_hits;
        band_hits = a.band_hits + d.band_hits;
        entries = d.entries;
        bytes = max a.bytes d.bytes;
      }

(* Set-up [setup_reps] times, keeping the last.  Each is also kept over
   the mean of the yardstick's timings just before and just after it. *)
let repeated_setup run ~teardown f =
  let times = Array.make setup_reps 0. and rel = Array.make setup_reps 0. in
  let last = ref None in
  let y = ref (Yardstick.time run.setup_yard) in
  for i = 0 to setup_reps - 1 do
    Option.iter teardown !last;
    let t0 = Clock.now () in
    let x = f () in
    times.(i) <- Clock.now () -. t0;
    last := Some x;
    let y' = Yardstick.time run.setup_yard in
    rel.(i) <- times.(i) /. ((!y +. y') /. 2.);
    y := y'
  done;
  run.setup <- times;
  run.setup_rel <- rel;
  Option.get !last

(* Untimed pass that fills a server's cache; every reply must be an
   answer or the run is meaningless. *)
let warm (conn : Wire.conn) queries =
  Array.iteri
    (fun i q ->
      match Option.map Wire.parse (Wire.roundtrip conn (Query.request ~id:(-1 - i) q)) with
      | Some (_, Ok _) -> ()
      | Some (_, Error msg) -> failwith ("warm-up request failed: " ^ msg)
      | None -> failwith "warm-up request got no reply")
    queries

(* The queries a workload's set-up sends to warm a server. *)
let warm_set = function
  | Dp_cold -> Query.dp_cold_warm
  | Hot_repeat -> Query.hot_pool
  | Dp_large -> [||]

(* A server for [model] as the workload's set-up leaves it: started,
   connected and warmed. *)
let start_server kind model =
  let cache_bytes = if kind = Dp_cold then dp_cold_cache_bytes else default_cache_bytes in
  let s = Wire.start ~model ~cache_bytes () in
  warm s.Wire.conn (warm_set kind);
  s

(* The timed window, with the yardstick timed at both ends; GC deltas
   around it, and the peak RSS at its end, before answer checking
   allocates reference sessions of its own. *)
let window run f =
  let g0 = Gc.quick_stat () in
  time_yardstick run;
  f ();
  if run.pending <> [] then time_yardstick run;
  let g1 = Gc.quick_stat () in
  run.gc_minor_words <- run.gc_minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  run.gc_major <- run.gc_major + (g1.Gc.major_collections - g0.Gc.major_collections);
  run.peak_rss_mb <- peak_rss_mb ()

(* Closed loop: one request in flight; the next is sent when the reply
   arrives.  Runs until [until], or to the first request with no reply. *)
let closed_loop run (conn : Wire.conn) ~until ~pick next =
  let w0 = Clock.now () in
  let stop = ref false in
  while (not !stop) && Clock.now () < until do
    let q = next () in
    let rid = run.attempted in
    run.attempted <- rid + 1;
    if pick rid then Check.pick run.check q;
    let line = Query.request ~id:rid q in
    let t0 = Clock.now () in
    let reply = Wire.roundtrip conn line in
    let dt = Clock.now () -. t0 in
    match reply with
    | None ->
      Check.error run.check "no reply within the reply timeout";
      stop := true
    | Some l ->
      if record run q (snd (Wire.parse l)) then latency run q dt;
      pace run
  done;
  run.window_s <- run.window_s +. (Clock.now () -. w0)

let every_8th rid = rid mod 8 = 0

(* The wire carries no cost model, so each model has its own server.  The
   three stay up for the whole run and take turns of about a second, so
   every model sees the same stretch of machine time. *)
let dp_cold ~seed ~seconds =
  let run = create Dp_cold in
  let start_all () = Array.map (start_server Dp_cold) Query.models in
  let servers = repeated_setup run ~teardown:(Array.iter Wire.stop) start_all in
  let streams = Array.mapi (fun phase _ -> Query.dp_cold ~seed ~phase) Query.models in
  let turns = 3 * max 1 (int_of_float (Float.round (seconds /. 3.))) in
  window run (fun () ->
      for k = 0 to turns - 1 do
        let m = k mod 3 in
        closed_loop run servers.(m).Wire.conn
          ~until:(Clock.now () +. (seconds /. float_of_int turns))
          ~pick:every_8th streams.(m)
      done;
      Array.iter
        (fun (s : Wire.stack) ->
          run.cache <- add_stats run.cache (Plan_cache.stats s.Wire.cache);
          Wire.stop s)
        servers);
  run

let hot_repeat ~seed ~seconds =
  let run = create Hot_repeat in
  let s =
    repeated_setup run ~teardown:Wire.stop (fun () ->
        start_server Hot_repeat Blitz_cost.Cost_model.kdnl)
  in
  Array.iter (Check.pick run.check) Query.hot_pool;
  let before = Plan_cache.stats s.Wire.cache in
  window run (fun () ->
      closed_loop run s.Wire.conn ~until:(Clock.now () +. seconds) ~pick:(fun _ -> false)
        (Query.hot_repeat ~seed);
      run.cache <- Some (stats_delta before (Plan_cache.stats s.Wire.cache));
      Wire.stop s);
  run

let dp_large ~seed ~seconds =
  let run = create Dp_large in
  let cells = Query.dp_large_cells ~seed in
  let session =
    (* The collection frees the last session's table, so that every
       set-up, like the first, pages in fresh memory for its own; without
       it they alternate between fresh and reused memory, 4 to 12 ms. *)
    let teardown s =
      Engine.close s;
      Gc.full_major ()
    in
    repeated_setup run ~teardown (fun () ->
        (* The session's first query would grow its arena to the n = 18
           table; that allocation is set-up, not per-query work. *)
        let session = Engine.create () in
        ignore (Arena.acquire (Engine.arena session) ~with_pi_fan:true Query.large_n);
        session)
  in
  let problems = Array.map Query.problem cells in
  Array.iter (Check.pick run.check) cells;
  window run (fun () ->
      let w0 = Clock.now () in
      (* The cells take turns; each is a class of its own, so a run that
         ends mid-round still weighs them equally. *)
      let k = ref 0 in
      while Clock.now () < w0 +. seconds do
        let i = !k mod Array.length cells in
        incr k;
        let q = cells.(i) and catalog, graph = problems.(i) in
        let budget = Budget.create ~max_table_bytes:server_table_bytes () in
        run.attempted <- run.attempted + 1;
        let t0 = Clock.now () in
        let r = Guard.optimize ~budget ~session ~seed:1 q.Query.model catalog graph in
        let dt = Clock.now () -. t0 in
        match r with
        | Error e -> Check.error run.check (Guard.error_message e)
        | Ok o ->
          let tier = Degrade.tier_name o.Guard.provenance.Degrade.winner in
          Check.add run.check q
            ~plan:(Plan.to_compact_string ~names:(Catalog.names o.Guard.catalog) o.Guard.plan)
            ~cost:o.Guard.cost ~tier;
          count_tier run tier;
          latency run q dt;
          pace run
      done;
      run.window_s <- Clock.now () -. w0);
  Engine.close session;
  run

let run kind ~seed ~seconds =
  match kind with
  | Dp_cold -> dp_cold ~seed ~seconds
  | Dp_large -> dp_large ~seed ~seconds
  | Hot_repeat -> hot_repeat ~seed ~seconds
