(* The traced run: per-layer numbers for one workload.

   Three passes, all seeded like the untraced run:

   A. The workload's own load for half the run time, untraced; the
      load-side counts (tiers, cache statistics, GC) come from it.
   B. The ladder: the first K requests of the workload's sequence, each
      sent down every rung on the same query, closed loop, against fresh
      servers and sessions set up like the untraced run's:
        1. the loopback socket;
        2. Engine.cache_find's two steps (fingerprint, find) on a cache
           with the server's size and history;
        3. an in-process replica of the server worker's path, with child
           spans for decode, problem, guard.optimize and encode;
        4. Engine.optimize on a session with no cache;
        5. Blitzsplit.optimize_join over a pooled arena, then best_plan;
        6. a Split_loop.find_best_split sweep over the converged table,
           under the request's own cost model and under each paper
           model no request of the pass uses.
      A layer's self time is its rung minus the rung below it on the same
      request.  Spans go into a preallocated buffer and are written as a
      Chrome trace at exit.
   B0. The same K requests over the socket alone, on fresh servers.  In
      the ladder the server idles while the other rungs run, so rung 1
      also pays for waking it; B0 is the socket time without that, and
      trace.overhead_pct is how far rung 1 sits above it.

   Blitz_obs.Trace is left off, so every pass measures the same program
   the untraced run does. *)

module Json = Blitz_util.Json
module Catalog = Blitz_catalog.Catalog
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Plan_cache = Blitz_cache.Plan_cache
module Fingerprint = Blitz_cache.Fingerprint
module Engine = Blitz_engine.Engine
module Registry = Blitz_engine.Registry
module Guard = Blitz_guard.Guard
module Budget = Blitz_guard.Budget
module Degrade = Blitz_guard.Degrade
module Sanitize = Blitz_guard.Sanitize
module Protocol = Blitz_serve.Protocol
module Workload = Blitz_workload.Workload
module Arena = Blitz_core.Arena
module Blitzsplit = Blitz_core.Blitzsplit
module Split_loop = Blitz_core.Split_loop
module Dp_table = Blitz_core.Dp_table
module Counters = Blitz_core.Counters

(* ---- spans ---- *)

let span_names =
  [|
    "request"; "socket"; "cache_find"; "fingerprint"; "find"; "sanitize"; "handler"; "decode";
    "problem"; "guard.optimize"; "encode"; "engine.optimize"; "blitzsplit"; "best_plan";
    "split_sweep.k0"; "split_sweep.ksm"; "split_sweep.kdnl";
  |]

let span_id name =
  let rec go i = if span_names.(i) = name then i else go (i + 1) in
  go 0

type spans = {
  name : int array;
  start : float array;
  stop : float array;
  parent : int array;
  req : int array;
  mutable len : int;
}

let spans_create requests =
  let cap = requests * Array.length span_names in
  {
    name = Array.make cap 0;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    parent = Array.make cap (-1);
    req = Array.make cap 0;
    len = 0;
  }

(* Run [f] inside a span; returns its result and duration in seconds. *)
let span sp ~req ~parent name f =
  let i = sp.len in
  sp.len <- i + 1;
  sp.name.(i) <- span_id name;
  sp.parent.(i) <- parent;
  sp.req.(i) <- req;
  sp.start.(i) <- Clock.now ();
  let x = f i in
  sp.stop.(i) <- Clock.now ();
  (x, sp.stop.(i) -. sp.start.(i))

let write_chrome sp path =
  let us x = Json.Float (x *. 1e6) in
  let events =
    List.init sp.len (fun i ->
        Json.Obj
          [
            ("name", Json.String span_names.(sp.name.(i)));
            ("ph", Json.String "X");
            ("ts", us sp.start.(i));
            ("dur", us (sp.stop.(i) -. sp.start.(i)));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj [ ("request", Json.Int sp.req.(i)); ("parent", Json.Int sp.parent.(i)) ] );
          ])
  in
  let rec mkdir_p d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string (Json.List events)))

(* ---- the sequence the ladder replays ---- *)

let ladder_requests = if Query.fast then 24 else 2000

let queries kind ~seed =
  let take k next = Array.init k (fun _ -> next ()) in
  match kind with
  | Load.Dp_cold ->
    let per_phase = if Query.fast then 3 else 40 in
    Array.concat (List.init 3 (fun phase -> take per_phase (Query.dp_cold ~seed ~phase)))
  | Load.Dp_large -> Query.dp_large_cells ~seed
  | Load.Hot_repeat -> take ladder_requests (Query.hot_repeat ~seed)

(* ---- one model's stack: the server plus in-process replicas ---- *)

type stack = {
  model : Cost_model.t;
  wire : Wire.stack;
  cache : Plan_cache.t;  (* same size and history as the server's *)
  handler : Engine.t;  (* the worker's session, over [cache] *)
  engine : Engine.t;  (* rung 4: no cache *)
  scratch : Fingerprint.scratch;
  digest : int;
}

let status_string = function
  | Degrade.Produced _ -> "produced"
  | Degrade.Aborted f -> "aborted (" ^ Degrade.failure_message f ^ ")"
  | Degrade.Skipped r -> "skipped (" ^ Degrade.skip_message r ^ ")"

type stages = { decode : float; problem : float; guard : float; encode : float }

(* The server worker's path (Server.run_job for a generated query),
   replicated in process with a span per stage; returns the response
   line and the stage durations. *)
let handler st sp ~req ~parent line =
  let t0 = Clock.now () in
  let env, decode = span sp ~req ~parent "decode" (fun _ -> Protocol.decode line) in
  match env with
  | Ok { Protocol.id; request = Protocol.Run { query = Protocol.Generated g; multiway; _ }; _ } ->
    let (catalog, graph), problem =
      span sp ~req ~parent "problem" (fun _ ->
          let topology = Result.get_ok (Topology.of_string g.topology) in
          Workload.problem
            (Workload.spec ~n:g.n ~topology ~model:st.model ~mean_card:g.mean_card
               ~variability:g.variability))
    in
    let r, guard =
      span sp ~req ~parent "guard.optimize" (fun _ ->
          let budget = Budget.create ~max_table_bytes:Load.server_table_bytes () in
          Guard.optimize ~budget ~session:st.handler ~seed:1 ~multiway ~cache_tag:"default" st.model
            catalog graph)
    in
    let o = match r with Ok o -> o | Error e -> failwith (Guard.error_message e) in
    let line, encode =
      span sp ~req ~parent "encode" (fun _ ->
          let p = o.Guard.provenance in
          Protocol.ok_response ~id
            (Json.Obj
               [
                 ( "plan",
                   Json.String
                     (Plan.to_compact_string ~names:(Catalog.names o.Guard.catalog) o.Guard.plan) );
                 ("cost", Json.Float o.Guard.cost);
                 ("tier", Json.String (Degrade.tier_name p.Degrade.winner));
                 ("from_cache", Json.Bool o.Guard.from_cache);
                 ("shed", Json.Bool false);
                 ("repairs", Json.Int (List.length o.Guard.repairs));
                 ( "attempts",
                   Json.List
                     (List.map
                        (fun (a : Degrade.attempt) ->
                          Json.Obj
                            [
                              ("tier", Json.String (Degrade.tier_name a.Degrade.tier));
                              ("status", Json.String (status_string a.Degrade.status));
                            ])
                        p.Degrade.attempts) );
                 ("elapsed_ms", Json.Float ((Clock.now () -. t0) *. 1000.));
               ]))
    in
    (line, { decode; problem; guard; encode })
  | _ -> failwith "handler replica: not a generated optimize request"

let start_stack kind model =
  let wire = Load.start_server kind model in
  let cache = Plan_cache.create ~max_bytes:(Plan_cache.max_bytes wire.Wire.cache) () in
  let st =
    {
      model;
      wire;
      cache;
      handler = Engine.create ~model ~cache ();
      engine = Engine.create ~model ();
      scratch = Fingerprint.create_scratch ();
      digest = Fingerprint.model_digest model;
    }
  in
  (* The server's warm-up, replayed through the replica, gives [cache]
     the server cache's history. *)
  let scratch_spans = spans_create 1 in
  Array.iteri
    (fun i q ->
      scratch_spans.len <- 0;
      ignore (handler st scratch_spans ~req:0 ~parent:(-1) (Query.request ~id:(-1 - i) q)))
    (Load.warm_set kind);
  st

let stop_stack st =
  Wire.stop st.wire;
  List.iter Engine.close [ st.handler; st.engine ]

(* ---- per-request rung times ---- *)

type times = {
  hit : bool;  (* the handler answered from its cache *)
  socket : float;
  fingerprint : float;
  find : float;
  cache_find : float;
  sanitize : float;
  handler_s : float;
  stages : stages;
  engine : float;
  dp : float;
  extract : float;
  sweep_ns : float array;  (* per Query.models entry *)
  sweep_own : float;
}

type ladder = {
  times : times array;  (* in request order *)
  spans : spans;
  check : Check.t;
  counters : Counters.t;  (* rung 5's, summed over the requests *)
  arena_grows : int;
  table_bytes : int;
}

(* State one ladder pass shares across its requests. *)
type pass = {
  sp : spans;
  pcheck : Check.t;
  pcounters : Counters.t;
  arena_a : Arena.t;  (* rung 5 *)
  arena_b : Arena.t;  (* rung 6's other-model tables *)
  unserved : int list;  (* Query.models indices no request of the pass uses *)
  mutable max_table : int;
}

let mismatch b what (q : Query.t) =
  Check.error b.pcheck (Printf.sprintf "%s: %s" what (Workload.describe (Query.spec q)))

let record_reply check q reply =
  match Option.map Wire.parse reply with
  | Some (_, Ok r) ->
    Check.add check q ~plan:r.Wire.plan ~cost:r.Wire.cost ~tier:r.Wire.tier;
    Some r
  | Some (_, Error msg) ->
    Check.error check msg;
    None
  | None ->
    Check.error check "no reply within the reply timeout";
    None

let full_sweep tbl model ctr =
  for s = 3 to Dp_table.size tbl - 1 do
    if s land (s - 1) <> 0 then Split_loop.find_best_split tbl model ctr ~threshold:Float.infinity s
  done

(* Rung 6: per paper model, nanoseconds per split-loop iteration of a
   sweep over a converged table (nan for a model this request does not
   sweep).  The request's own model goes first, on the table rung 5 just
   converged; each model no request of the pass serves ([b.unserved])
   follows, on a table converged for it, untimed.  Also returns the
   own-model sweep's seconds. *)
let sweeps b ~req ~root (q : Query.t) catalog graph own_table =
  let nm = Array.length Query.models in
  let own = Query.model_index q.Query.model in
  let seconds = Array.make nm 0. and ns = Array.make nm nan in
  own :: b.unserved
  |> List.iter (fun mi ->
         let m = Query.models.(mi) in
         let tbl =
           if mi = own then own_table
           else (Blitzsplit.optimize_join ~arena:b.arena_b m catalog graph).Blitzsplit.table
         in
         let ctr = Counters.create () in
         let (), s =
           span b.sp ~req ~parent:root ("split_sweep." ^ m.Cost_model.name) (fun _ ->
               full_sweep tbl m ctr)
         in
         seconds.(mi) <- s;
         ns.(mi) <- s *. 1e9 /. float_of_int (max 1 ctr.Counters.loop_iters));
  (ns, seconds.(own))

(* A server worker runs nothing but its own DP, so its pooled table stays
   in cache from one request to the next.  In the ladder the other rungs'
   tables evict it, so each DP rung gets its table touched, untimed, just
   before it runs. *)
let touch arena (q : Query.t) = ignore (Arena.acquire arena ~with_pi_fan:true q.Query.n)

(* One request down every rung, cross-checking the rungs' answers. *)
let climb b st ~req (q : Query.t) =
  let catalog, graph = Query.problem q in
  let line = Query.request ~id:req q in
  Check.pick b.pcheck q;
  let timed root name f = span b.sp ~req ~parent:root name (fun _ -> f ()) in
  fst
    (span b.sp ~req ~parent:(-1) "request" (fun root ->
         let reply, socket =
           timed root "socket" (fun () -> Wire.roundtrip st.wire.Wire.conn line)
         in
         let server = record_reply b.pcheck q reply in
         (* Engine.cache_find's two steps, timed apart: the worker's
            lookup under its "exact@<tenant>" key. *)
         let (fingerprint, find), cache_find =
           span b.sp ~req ~parent:root "cache_find" (fun c ->
               let (), fingerprint =
                 timed c "fingerprint" (fun () ->
                     Fingerprint.compute st.scratch ~model_digest:st.digest catalog (Some graph))
               in
               let _, find =
                 timed c "find" (fun () ->
                     Plan_cache.find st.cache st.scratch ~optimizer:"exact@default")
               in
               (fingerprint, find))
         in
         let _, sanitize = timed root "sanitize" (fun () -> Sanitize.check_pair catalog graph) in
         touch (Engine.arena st.handler) q;
         let (answer, stages), handler_s =
           span b.sp ~req ~parent:root "handler" (fun h -> handler st b.sp ~req ~parent:h line)
         in
         let mine = snd (Wire.parse answer) in
         (match (server, mine) with
         | Some r, Ok m when { r with Wire.server_ms = 0. } = { m with Wire.server_ms = 0. } -> ()
         | Some _, _ -> mismatch b "handler replica and server disagree" q
         | None, _ -> ());
         touch (Engine.arena st.engine) q;
         let o, engine =
           timed root "engine.optimize" (fun () ->
               Engine.optimize st.engine (Registry.problem ~graph catalog))
         in
         touch b.arena_a q;
         let r, dp =
           timed root "blitzsplit" (fun () ->
               Blitzsplit.optimize_join ~arena:b.arena_a ~counters:b.pcounters q.Query.model catalog
                 graph)
         in
         let _, extract = timed root "best_plan" (fun () -> Blitzsplit.best_plan r) in
         if Int64.bits_of_float (Blitzsplit.best_cost r) <> Int64.bits_of_float o.Registry.cost then
           mismatch b "Engine.optimize and Blitzsplit disagree" q;
         (match server with
         | Some s when Check.g12 s.Wire.cost <> Check.g12 o.Registry.cost ->
           mismatch b "server answer is not the Engine optimum" q
         | _ -> ());
         b.max_table <-
           max b.max_table (Dp_table.estimate_bytes ~with_pi_fan:true ~n:q.Query.n ());
         let sweep_ns, sweep_own = sweeps b ~req ~root q catalog graph r.Blitzsplit.table in
         {
           hit = (match mine with Ok m -> m.Wire.from_cache | Error _ -> false);
           socket;
           fingerprint;
           find;
           cache_find;
           sanitize;
           handler_s;
           stages;
           engine;
           dp;
           extract;
           sweep_ns;
           sweep_own;
         }))

(* One stack per cost model, started on first use, as the workload's own
   set-up would leave it. *)
let per_model start =
  let tbl = Hashtbl.create 3 in
  let get (m : Cost_model.t) =
    match Hashtbl.find_opt tbl m.Cost_model.name with
    | Some x -> x
    | None ->
      let x = start m in
      Hashtbl.add tbl m.Cost_model.name x;
      x
  in
  (get, tbl)

let run_ladder kind qs =
  let stack, stacks = per_model (start_stack kind) in
  let b =
    {
      sp = spans_create (Array.length qs);
      pcheck = Check.create ();
      pcounters = Counters.create ();
      arena_a = Arena.create ();
      arena_b = Arena.create ();
      unserved =
        List.filter
          (fun mi -> not (Array.exists (fun (q : Query.t) -> Query.model_index q.Query.model = mi) qs))
          (List.init (Array.length Query.models) Fun.id);
      max_table = 0;
    }
  in
  let times = Array.mapi (fun req (q : Query.t) -> climb b (stack q.Query.model) ~req q) qs in
  let arena_grows =
    Hashtbl.fold (fun _ (st : stack) acc -> acc + Arena.grows (Engine.arena st.engine)) stacks 0
  in
  Hashtbl.iter (fun _ st -> stop_stack st) stacks;
  {
    times;
    spans = b.sp;
    check = b.pcheck;
    counters = b.pcounters;
    arena_grows;
    table_bytes = b.max_table;
  }

(* B0: the same requests over the socket alone; per request, the round
   trip in seconds and the server's own elapsed_ms. *)
let socket_baseline kind qs check =
  let server, servers = per_model (Load.start_server kind) in
  let samples =
    Array.mapi
      (fun req (q : Query.t) ->
        let s = server q.Query.model in
        let t0 = Clock.now () in
        let reply = Wire.roundtrip s.Wire.conn (Query.request ~id:req q) in
        let dt = Clock.now () -. t0 in
        match record_reply check q reply with
        | Some r -> (dt, r.Wire.server_ms)
        | None -> (dt, nan))
      qs
  in
  Hashtbl.iter (fun _ s -> Wire.stop s) servers;
  samples
