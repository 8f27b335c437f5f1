module Json = Blitz_util.Json
module Err = Blitz_util.Err
module Metrics = Blitz_obs.Metrics
module Engine = Blitz_engine.Engine
module Guard = Blitz_guard.Guard
module Degrade = Blitz_guard.Degrade
module Budget = Blitz_guard.Budget
module Catalog = Blitz_catalog.Catalog
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Plan_cache = Blitz_cache.Plan_cache
module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology

type config = {
  host : string;
  port : int;
  workers : int;
  tenants : Tenant.t list;
  model : Cost_model.t;
  cache : Plan_cache.t option;
  shed_queue : int;
  shed_deadline_ms : float;
  max_requests : int option;
  seed : int;
}

(* The DP-table ceiling for tenants without [table-mb]: an unbounded
   server is one [n = 40] request away from the OOM killer. *)
let default_table_bytes = 256 * 1024 * 1024

(* The hard bound on queued work, a memory guard: past it a request is
   answered [overloaded] without optimizing.  Shedding starts far below
   it, at [shed_queue]. *)
let max_queue = 4096

let default_model () = Err.get (Cost_model.of_string "kdnl")

let config ?(host = "127.0.0.1") ?(port = 0) ?(workers = 1) ?(tenants = []) ?model ?cache
    ?(shed_queue = 16) ?(shed_deadline_ms = 5.) ?max_requests ?(seed = 1) () =
  if workers < 1 then invalid_arg "Server.config: workers must be at least 1";
  if shed_queue < 1 then invalid_arg "Server.config: shed_queue must be at least 1";
  if shed_deadline_ms <= 0. then invalid_arg "Server.config: shed_deadline_ms must be positive";
  let model = match model with Some m -> m | None -> default_model () in
  let cache =
    match cache with
    | Some c -> Some c
    | None -> Some (Plan_cache.create ~max_bytes:(4 * 1024 * 1024) ())
  in
  {
    host;
    port;
    workers;
    tenants;
    model;
    cache;
    shed_queue;
    shed_deadline_ms;
    max_requests;
    seed;
  }

type job = {
  conn_id : int;
  rid : Json.t;
  tenant : Tenant.t;
  call : Protocol.call;
  query : Protocol.query;
  enqueued_at : float;
}

type tenant_stat = { mutable served : int; mutable shed : int; mutable quota_rejected : int }

type tenant_metrics = {
  m_optimize : Metrics.counter;
  m_explain : Metrics.counter;
  m_quota : Metrics.counter;
  m_shed : Metrics.counter;
}

type t = {
  cfg : config;
  tenants : (string, Tenant.t) Hashtbl.t;  (* read-only after [start] *)
  quotas : (string, Quota.t) Hashtbl.t;  (* event-loop domain only *)
  tmetrics : (string, tenant_metrics) Hashtbl.t;  (* read-only after [start] *)
  listen_fd : Unix.file_descr;
  bound_port : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  lock : Mutex.t;
  work_cond : Condition.t;
  work : job Queue.t;
  out : (int * string) Queue.t;  (* conn_id, response line *)
  mutable busy : int;  (* workers mid-job *)
  mutable served : int;  (* optimize/explain responses generated *)
  mutable drain : bool;  (* stop reading; exit once flushed *)
  mutable poison : bool;  (* workers exit once the queue is empty *)
  tstats : (string, tenant_stat) Hashtbl.t;
  h_latency : Metrics.histogram;
  g_queue : Metrics.gauge;
  c_conns : Metrics.counter;
  c_decode_errors : Metrics.counter;
  c_health : Metrics.counter;
  c_stats : Metrics.counter;
  c_sheds : Metrics.counter;
  c_overload : Metrics.counter;
  c_refused : Metrics.counter;
  mutable loop_d : unit Domain.t option;
  mutable worker_ds : unit Domain.t list;
}

let port t = t.bound_port

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 'w') 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

(* Call with [t.lock] held. *)
let stat_for t name =
  match Hashtbl.find_opt t.tstats name with
  | Some s -> s
  | None ->
    let s = { served = 0; shed = 0; quota_rejected = 0 } in
    Hashtbl.replace t.tstats name s;
    s

(* ------------------------------------------------------------------ *)
(* Worker side: run one job through the Guard under the tenant budget. *)

let status_string = function
  | Degrade.Produced _ -> "produced"
  | Degrade.Aborted f -> "aborted (" ^ Degrade.failure_message f ^ ")"
  | Degrade.Skipped r -> "skipped (" ^ Degrade.skip_message r ^ ")"

(* An exact attempt that pruned at a §6.4 bound also names it: the
   threshold, the heuristic whose plan set it, and the subsets the pass
   skipped.  The field is additive (DESIGN §5i). *)
let attempts_json (p : Degrade.provenance) =
  Json.List
    (List.map
       (fun (a : Degrade.attempt) ->
         let bound =
           match a.Degrade.bound with
           | None -> []
           | Some b ->
             [
               ( "bound",
                 Json.Obj
                   [
                     ("value", Json.Float b.Degrade.upper.Blitz_engine.Registry.value);
                     ("source", Json.String b.Degrade.upper.Blitz_engine.Registry.source);
                     ("threshold_skips", Json.Int b.Degrade.threshold_skips);
                   ] );
             ]
         in
         Json.Obj
           ([
              ("tier", Json.String (Degrade.tier_name a.Degrade.tier));
              ("status", Json.String (status_string a.Degrade.status));
            ]
           @ bound))
       p.Degrade.attempts)

let rec tree_json model catalog graph names (p : Plan.t) =
  let card = Plan.cardinality catalog graph p in
  match p with
  | Plan.Leaf i ->
    Json.Obj
      [ ("op", Json.String "scan"); ("relation", Json.String names.(i)); ("card", Json.Float card) ]
  | Plan.Join (l, r) ->
    Json.Obj
      [
        ("op", Json.String "join");
        ("card", Json.Float card);
        ("cost", Json.Float (Plan.cost model catalog graph p));
        ("children", Json.List [ tree_json model catalog graph names l; tree_json model catalog graph names r ]);
      ]

let run_job t session (job : job) ~shed =
  let tenant = job.tenant in
  let deadline_ms = if shed then Some t.cfg.shed_deadline_ms else tenant.Tenant.deadline_ms in
  let max_table_bytes =
    Some (Option.value tenant.Tenant.max_table_bytes ~default:default_table_bytes)
  in
  let budget = Budget.create ?deadline_ms ?max_table_bytes () in
  let cache_tag = tenant.Tenant.name in
  let result =
    match job.query with
    | Protocol.Inline { relations; edges } ->
      `Guard
        (Guard.optimize_input ~budget ~session ~seed:t.cfg.seed ~cache_tag
           t.cfg.model ~relations ~edges ())
    | Protocol.Generated { n; topology; mean_card; variability } -> (
      match Topology.of_string topology with
      | Error msg -> `Bad msg
      | Ok topo -> (
        match Workload.spec ~n ~topology:topo ~model:t.cfg.model ~mean_card ~variability with
        | exception Invalid_argument msg -> `Bad msg
        | spec ->
          let catalog, graph = Workload.problem spec in
          `Guard
            (Guard.optimize ~budget ~session ~seed:t.cfg.seed ~cache_tag
               t.cfg.model catalog graph)))
  in
  let elapsed_ms = (Blitz_util.Clock.now_s () -. job.enqueued_at) *. 1000. in
  match result with
  | `Bad msg ->
    Protocol.error_response ~id:job.rid ~code:"invalid_request"
      ~message:(Err.format ~scope:"serve" "%s" msg)
  | `Guard (Error (Guard.Invalid_input _ as e)) ->
    Protocol.error_response ~id:job.rid ~code:"invalid_input" ~message:(Guard.error_message e)
  | `Guard (Error e) ->
    Protocol.error_response ~id:job.rid ~code:"internal" ~message:(Guard.error_message e)
  | `Guard (Ok o) ->
    let names = Catalog.names o.Guard.catalog in
    let p = o.Guard.provenance in
    let base =
      [
        ("plan", Json.String (Plan.to_compact_string ~names o.Guard.plan));
        ("cost", Json.Float o.Guard.cost);
        ("tier", Json.String (Degrade.tier_name p.Degrade.winner));
        ("from_cache", Json.Bool o.Guard.from_cache);
        ("shed", Json.Bool shed);
        ("repairs", Json.Int (List.length o.Guard.repairs));
        ("attempts", attempts_json p);
        ("elapsed_ms", Json.Float elapsed_ms);
      ]
    in
    let fields =
      match job.call with
      | Protocol.Optimize -> base
      | Protocol.Explain ->
        base
        @ [
            (* Constant since every plan is binary; kept so v1 explain
               responses keep their shape. *)
            ("multiway_nodes", Json.Int 0);
            ("tree", tree_json t.cfg.model o.Guard.catalog o.Guard.graph names o.Guard.plan);
          ]
    in
    Protocol.ok_response ~id:job.rid (Json.Obj fields)

let run_job_safe t session job ~shed =
  try run_job t session job ~shed
  with exn ->
    Protocol.error_response ~id:job.rid ~code:"internal"
      ~message:(Err.format ~scope:"serve" "unexpected failure: %s" (Printexc.to_string exn))

let worker t () =
  let session =
    Engine.create ~model:t.cfg.model ~num_domains:1 ~seed:t.cfg.seed ?cache:t.cfg.cache ()
  in
  Fun.protect
    ~finally:(fun () -> Engine.close session)
    (fun () ->
      let rec go () =
        Mutex.lock t.lock;
        while Queue.is_empty t.work && not t.poison do
          Condition.wait t.work_cond t.lock
        done;
        if Queue.is_empty t.work then Mutex.unlock t.lock
        else begin
          let job = Queue.pop t.work in
          let depth = Queue.length t.work in
          t.busy <- t.busy + 1;
          Mutex.unlock t.lock;
          Metrics.set t.g_queue (float_of_int depth);
          (* Shed when the queue behind this job is already deep: clamp
             the deadline so the cascade lands on its deadline-exempt
             tiers and the backlog drains instead of compounding. *)
          let shed = depth >= t.cfg.shed_queue in
          let line = run_job_safe t session job ~shed in
          (match Hashtbl.find_opt t.tmetrics job.tenant.Tenant.name with
          | Some tm ->
            Metrics.incr
              (match job.call with
              | Protocol.Optimize -> tm.m_optimize
              | Protocol.Explain -> tm.m_explain);
            if shed then Metrics.incr tm.m_shed
          | None -> ());
          if shed then Metrics.incr t.c_sheds;
          Metrics.observe t.h_latency (Blitz_util.Clock.now_s () -. job.enqueued_at);
          Mutex.lock t.lock;
          t.busy <- t.busy - 1;
          t.served <- t.served + 1;
          let st = stat_for t job.tenant.Tenant.name in
          st.served <- st.served + 1;
          if shed then st.shed <- st.shed + 1;
          Queue.push (job.conn_id, line) t.out;
          Mutex.unlock t.lock;
          wake t;
          go ()
        end
      in
      go ())

(* ------------------------------------------------------------------ *)
(* Event-loop side. *)

type mode = Sniff | Ndjson | Http

type conn = {
  fd : Unix.file_descr;
  cid : int;
  inbuf : Buffer.t;
  outq : string Queue.t;
  mutable pending : string;
  mutable poff : int;
  mutable mode : mode;
  mutable inflight : int;  (* jobs queued/running for this connection *)
  mutable eof : bool;
  mutable closing : bool;  (* close once output is flushed *)
  mutable broken : bool;  (* close now, drop output *)
}

let has_output c = c.pending <> "" || not (Queue.is_empty c.outq)

let rec try_flush c =
  if c.broken then ()
  else if c.pending = "" then (
    match Queue.take_opt c.outq with
    | Some s ->
      c.pending <- s;
      c.poff <- 0;
      try_flush c
    | None -> ())
  else
    let len = String.length c.pending - c.poff in
    match Unix.write_substring c.fd c.pending c.poff len with
    | n ->
      c.poff <- c.poff + n;
      if c.poff >= String.length c.pending then begin
        c.pending <- "";
        c.poff <- 0;
        try_flush c
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> c.broken <- true

let send_line t c ~counts line =
  if counts then begin
    Mutex.lock t.lock;
    t.served <- t.served + 1;
    Mutex.unlock t.lock
  end;
  Queue.push (line ^ "\n") c.outq;
  try_flush c

let health_json t =
  Mutex.lock t.lock;
  let depth = Queue.length t.work in
  Mutex.unlock t.lock;
  let tenants =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.tenants [] |> List.sort compare
  in
  Json.Obj
    [
      ("status", Json.String "ok");
      ("protocol", Json.Int Protocol.version);
      ("workers", Json.Int t.cfg.workers);
      ("queue_depth", Json.Int depth);
      ("tenants", Json.List (List.map (fun n -> Json.String n) tenants));
    ]

let stats_json t =
  Mutex.lock t.lock;
  let served = t.served in
  let depth = Queue.length t.work in
  let per =
    Hashtbl.fold
      (fun name (st : tenant_stat) acc ->
        ( name,
          Json.Obj
            [
              ("served", Json.Int st.served);
              ("shed", Json.Int st.shed);
              ("quota_rejected", Json.Int st.quota_rejected);
            ] )
        :: acc)
      t.tstats []
  in
  Mutex.unlock t.lock;
  let per = List.sort (fun (a, _) (b, _) -> compare a b) per in
  let cache =
    match t.cfg.cache with
    | None -> Json.Null
    | Some c ->
      let s = Plan_cache.stats c in
      Json.Obj
        [
          ("hits", Json.Int s.Plan_cache.hits);
          ("misses", Json.Int s.Plan_cache.misses);
          ("insertions", Json.Int s.Plan_cache.insertions);
          ("entries", Json.Int s.Plan_cache.entries);
          ("bytes", Json.Int s.Plan_cache.bytes);
        ]
  in
  Json.Obj
    [
      ("served", Json.Int served);
      ("queue_depth", Json.Int depth);
      ("workers", Json.Int t.cfg.workers);
      ("tenants", Json.Obj per);
      ("cache", cache);
    ]

let handle_line t c line =
  match Protocol.decode line with
  | Error rej ->
    Metrics.incr t.c_decode_errors;
    send_line t c ~counts:false (Protocol.rejected_response rej)
  | Ok env -> (
    match env.Protocol.request with
    | Protocol.Health ->
      Metrics.incr t.c_health;
      send_line t c ~counts:false (Protocol.ok_response ~id:env.Protocol.id (health_json t))
    | Protocol.Stats ->
      Metrics.incr t.c_stats;
      send_line t c ~counts:false (Protocol.ok_response ~id:env.Protocol.id (stats_json t))
    | Protocol.Run { call; query; multiway = _ } -> (
      let tname = Option.value env.Protocol.tenant ~default:Tenant.default_name in
      match Hashtbl.find_opt t.tenants tname with
      | None ->
        send_line t c ~counts:true
          (Protocol.error_response ~id:env.Protocol.id ~code:"unknown_tenant"
             ~message:(Err.format ~scope:"serve" "unknown tenant %S" tname))
      | Some tenant ->
        let quota = Hashtbl.find t.quotas tname in
        if not (Quota.try_acquire quota) then begin
          (match Hashtbl.find_opt t.tmetrics tname with
          | Some tm -> Metrics.incr tm.m_quota
          | None -> ());
          Mutex.lock t.lock;
          let st = stat_for t tname in
          st.quota_rejected <- st.quota_rejected + 1;
          Mutex.unlock t.lock;
          send_line t c ~counts:true
            (Protocol.error_response ~id:env.Protocol.id ~code:"quota_exhausted"
               ~message:(Err.format ~scope:"serve" "tenant %S is over its request quota" tname))
        end
        else begin
          Mutex.lock t.lock;
          let depth = Queue.length t.work in
          if depth >= max_queue then begin
            Mutex.unlock t.lock;
            Metrics.incr t.c_overload;
            send_line t c ~counts:true
              (Protocol.error_response ~id:env.Protocol.id ~code:"overloaded"
                 ~message:
                   (Err.format ~scope:"serve" "work queue is full (%d requests)" max_queue))
          end
          else begin
            Queue.push
              {
                conn_id = c.cid;
                rid = env.Protocol.id;
                tenant;
                call;
                query;
                enqueued_at = Blitz_util.Clock.now_s ();
              }
              t.work;
            c.inflight <- c.inflight + 1;
            Condition.signal t.work_cond;
            Mutex.unlock t.lock;
            Metrics.set t.g_queue (float_of_int (depth + 1))
          end
        end))

let find_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = if i + nl > hl then None else if String.sub haystack i nl = needle then Some i else go (i + 1) in
  go 0

let handle_http c =
  let data = Buffer.contents c.inbuf in
  match find_substring data "\r\n\r\n" with
  | None -> if String.length data > 8192 then c.broken <- true
  | Some _ ->
    let first_line =
      match find_substring data "\r\n" with Some i -> String.sub data 0 i | None -> data
    in
    let path =
      match String.split_on_char ' ' first_line with _ :: p :: _ -> p | _ -> "/"
    in
    let code, reason, body =
      if path = "/metrics" then (200, "OK", Metrics.to_prometheus ())
      else (404, "Not Found", "not found\n")
    in
    let resp =
      Printf.sprintf
        "HTTP/1.0 %d %s\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: \
         %d\r\nConnection: close\r\n\r\n%s"
        code reason (String.length body) body
    in
    Buffer.clear c.inbuf;
    Queue.push resp c.outq;
    c.closing <- true;
    try_flush c

let process_lines t c =
  let data = Buffer.contents c.inbuf in
  if String.contains data '\n' then begin
    let parts = String.split_on_char '\n' data in
    let rec last = function [ x ] -> x | _ :: rest -> last rest | [] -> "" in
    Buffer.clear c.inbuf;
    Buffer.add_string c.inbuf (last parts);
    let rec go = function
      | [] | [ _ ] -> ()
      | line :: rest ->
        let line =
          if String.length line > 0 && line.[String.length line - 1] = '\r' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        if String.trim line <> "" then handle_line t c line;
        go rest
    in
    go parts
  end;
  if Buffer.length c.inbuf > Protocol.max_line_bytes then begin
    send_line t c ~counts:false
      (Protocol.error_response ~id:Json.Null ~code:"parse_error"
         ~message:
           (Err.format ~scope:"serve" "request line exceeds %d bytes" Protocol.max_line_bytes));
    Buffer.clear c.inbuf;
    c.closing <- true
  end

let process_input t c =
  (match c.mode with
  | Sniff ->
    let data = Buffer.contents c.inbuf in
    let prefix = "GET " in
    if String.length data >= String.length prefix then
      c.mode <- (if String.sub data 0 (String.length prefix) = prefix then Http else Ndjson)
    else if not (String.starts_with ~prefix:data prefix) then c.mode <- Ndjson
  | Ndjson | Http -> ());
  match c.mode with Http -> handle_http c | Ndjson -> process_lines t c | Sniff -> ()

(* [buf] is the event loop's one read buffer: what a read brings in is
   copied into the connection's own [inbuf] before the next read. *)
let on_readable t buf c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> c.eof <- true
  | n ->
    Buffer.add_subbytes c.inbuf buf 0 n;
    process_input t c
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> c.broken <- true

(* [Unix.select] watches only descriptors below FD_SETSIZE (1024 with
   glibc): given one at or above it, the whole call fails with EINVAL.
   Asking about the descriptor alone, with a zero timeout, tells. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (EINVAL, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* A connection the event loop could not watch: answer it with a typed
   [overloaded] error and close it.  Shutting the sending side first and
   reading what the client already sent lets the error arrive instead of
   a reset. *)
let refuse_connection t fd =
  Metrics.incr t.c_refused;
  let line =
    Protocol.error_response ~id:Json.Null ~code:"overloaded"
      ~message:
        (Err.format ~scope:"serve"
           "too many open connections: the event loop cannot watch another descriptor")
    ^ "\n"
  in
  (try
     Unix.set_nonblock fd;
     ignore (Unix.write_substring fd line 0 (String.length line));
     Unix.shutdown fd Unix.SHUTDOWN_SEND;
     let scratch = Bytes.create 512 in
     let rec drain reads =
       if reads > 0 && Unix.read fd scratch 0 (Bytes.length scratch) > 0 then drain (reads - 1)
     in
     drain 8
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let loop t () =
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 32 in
  let by_fd : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 32 in
  let next_cid = ref 0 in
  (* Allocated once: a fresh 4 KiB buffer per readable event would go
     straight to the major heap, being over the minor heap's size limit
     for one block. *)
  let buf = Bytes.create 4096 in
  let drain_wake () =
    let rec go () = if Unix.read t.wake_r buf 0 (Bytes.length buf) > 0 then go () in
    try go () with Unix.Unix_error _ -> ()
  in
  let close_conn c =
    Hashtbl.remove conns c.cid;
    Hashtbl.remove by_fd c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let accept_new () =
    let rec go () =
      match Unix.accept t.listen_fd with
      | fd, _ when not (selectable fd) ->
        refuse_connection t fd;
        go ()
      | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        incr next_cid;
        let c =
          {
            fd;
            cid = !next_cid;
            inbuf = Buffer.create 256;
            outq = Queue.create ();
            pending = "";
            poff = 0;
            mode = Sniff;
            inflight = 0;
            eof = false;
            closing = false;
            broken = false;
          }
        in
        Hashtbl.replace conns c.cid c;
        Hashtbl.replace by_fd fd c;
        Metrics.incr t.c_conns;
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  let transfer_out () =
    Mutex.lock t.lock;
    let items = Queue.fold (fun acc x -> x :: acc) [] t.out in
    Queue.clear t.out;
    Mutex.unlock t.lock;
    List.rev items
    |> List.iter (fun (cid, line) ->
           match Hashtbl.find_opt conns cid with
           | Some c ->
             c.inflight <- c.inflight - 1;
             Queue.push (line ^ "\n") c.outq;
             try_flush c
           | None -> ())
  in
  let finished () =
    Mutex.lock t.lock;
    let f = Queue.is_empty t.work && t.busy = 0 && Queue.is_empty t.out in
    Mutex.unlock t.lock;
    f && Hashtbl.fold (fun _ c acc -> acc && not (has_output c)) conns true
  in
  let rec run () =
    let to_close =
      Hashtbl.fold
        (fun _ c acc ->
          if c.broken then c :: acc
          else if (c.closing || c.eof) && (not (has_output c)) && c.inflight = 0 then c :: acc
          else acc)
        conns []
    in
    List.iter close_conn to_close;
    Mutex.lock t.lock;
    (match t.cfg.max_requests with
    | Some m when t.served >= m -> t.drain <- true
    | _ -> ());
    let draining = t.drain in
    Mutex.unlock t.lock;
    if draining && finished () then ()
    else begin
      let rds =
        t.wake_r
        ::
        (if draining then []
         else
           t.listen_fd
           :: Hashtbl.fold (fun _ c acc -> if c.eof || c.broken then acc else c.fd :: acc) conns [])
      in
      let wrs = Hashtbl.fold (fun _ c acc -> if has_output c then c.fd :: acc else acc) conns [] in
      let rs, ws, _ =
        try Unix.select rds wrs [] 0.2 with
        | Unix.Unix_error (EINTR, _, _) -> ([], [], [])
        | Unix.Unix_error (EINVAL, _, _) ->
          (* Accepting refuses descriptors select cannot watch, so this
             should not happen; if one got in anyway, drop its
             connection rather than the loop. *)
          Hashtbl.iter (fun _ c -> if not (selectable c.fd) then c.broken <- true) conns;
          ([], [], [])
      in
      if List.mem t.wake_r rs then drain_wake ();
      transfer_out ();
      if (not draining) && List.mem t.listen_fd rs then accept_new ();
      List.iter
        (fun fd ->
          if fd <> t.wake_r && fd <> t.listen_fd then
            match Hashtbl.find_opt by_fd fd with Some c -> on_readable t buf c | None -> ())
        rs;
      List.iter
        (fun fd -> match Hashtbl.find_opt by_fd fd with Some c -> try_flush c | None -> ())
        ws;
      transfer_out ();
      run ()
    end
  in
  run ();
  Mutex.lock t.lock;
  t.poison <- true;
  Condition.broadcast t.work_cond;
  Mutex.unlock t.lock;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)

let start (cfg : config) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Metrics.set_enabled true;
  let tenant_list =
    if List.exists (fun tn -> tn.Tenant.name = Tenant.default_name) cfg.tenants then cfg.tenants
    else cfg.tenants @ [ Tenant.default ]
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
      Unix.listen listen_fd 128;
      Unix.set_nonblock listen_fd;
      let bound_port =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> cfg.port
      in
      let wake_r, wake_w = Unix.pipe () in
      Unix.set_nonblock wake_r;
      Unix.set_nonblock wake_w;
      {
        cfg;
        tenants = Hashtbl.create 8;
        quotas = Hashtbl.create 8;
        tmetrics = Hashtbl.create 8;
        listen_fd;
        bound_port;
        wake_r;
        wake_w;
        lock = Mutex.create ();
        work_cond = Condition.create ();
        work = Queue.create ();
        out = Queue.create ();
        busy = 0;
        served = 0;
        drain = false;
        poison = false;
        tstats = Hashtbl.create 8;
        h_latency =
          Metrics.histogram ~help:"Request latency, enqueue to response" "blitz_serve_request_seconds";
        g_queue = Metrics.gauge ~help:"Jobs waiting for a worker" "blitz_serve_queue_depth";
        c_conns = Metrics.counter ~help:"Accepted connections" "blitz_serve_connections_total";
        c_decode_errors =
          Metrics.counter ~help:"Lines rejected by the protocol codec"
            "blitz_serve_decode_errors_total";
        c_health =
          Metrics.counter ~help:"Requests served" ~labels:[ ("method", "health"); ("tenant", "-") ]
            "blitz_serve_requests_total";
        c_stats =
          Metrics.counter ~help:"Requests served" ~labels:[ ("method", "stats"); ("tenant", "-") ]
            "blitz_serve_requests_total";
        c_sheds =
          Metrics.counter ~help:"Requests run under the shed deadline" "blitz_serve_sheds_total";
        c_overload =
          Metrics.counter ~help:"Requests refused on a full work queue"
            "blitz_serve_overload_total";
        c_refused =
          Metrics.counter
            ~help:"Connections refused because the event loop could not watch their descriptor"
            "blitz_serve_refused_connections_total";
        loop_d = None;
        worker_ds = [];
      }
    with exn ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise exn
  in
  List.iter
    (fun tn ->
      let name = tn.Tenant.name in
      Hashtbl.replace t.tenants name tn;
      Hashtbl.replace t.quotas name (Tenant.quota tn);
      Hashtbl.replace t.tmetrics name
        {
          m_optimize =
            Metrics.counter ~help:"Requests served"
              ~labels:[ ("method", "optimize"); ("tenant", name) ]
              "blitz_serve_requests_total";
          m_explain =
            Metrics.counter ~help:"Requests served"
              ~labels:[ ("method", "explain"); ("tenant", name) ]
              "blitz_serve_requests_total";
          m_quota =
            Metrics.counter ~help:"Requests rejected by the tenant quota"
              ~labels:[ ("tenant", name) ] "blitz_serve_quota_rejections_total";
          m_shed =
            Metrics.counter ~help:"Requests run under the shed deadline"
              ~labels:[ ("tenant", name) ] "blitz_serve_tenant_sheds_total";
        })
    tenant_list;
  t.worker_ds <- List.init cfg.workers (fun _ -> Domain.spawn (worker t));
  t.loop_d <- Some (Domain.spawn (loop t));
  t

let wait t =
  Mutex.lock t.lock;
  let d = t.loop_d in
  t.loop_d <- None;
  Mutex.unlock t.lock;
  (match d with Some d -> Domain.join d | None -> ());
  Mutex.lock t.lock;
  let ws = t.worker_ds in
  t.worker_ds <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join ws

let stop t =
  Mutex.lock t.lock;
  t.drain <- true;
  Mutex.unlock t.lock;
  wake t;
  wait t
