(* Experiment "serve": the serving layer under load, with gates.

   A closed-loop/open-loop generator (the classic distinction: closed
   loop waits for each response before sending the next request, so
   latency feedback throttles the arrival rate; open loop writes the
   whole burst up front and lets the queue absorb it) drives in-process
   `Blitz_serve.Server` instances over real loopback sockets — the
   full path: NDJSON framing, protocol decode, quota admission, worker
   dispatch, Guard cascade, response encode.

   Four cells, two of them gated:

   1. closed-cold — distinct generated queries, closed loop.  Baseline
      per-request latency (p50/p99) and throughput.

   2. zipfian — repeated queries drawn rank-skewed (P(i) ~ 1/(i+1)^s,
      s = 1.1) from a fixed pool, closed loop, against a cache-warm
      server and against a cache-disabled one — both alive at once,
      the same draw sequence replayed against each in alternation for
      7 interleaved rounds (3 in fast mode) so CPU-frequency drift
      penalizes both alike; the gate compares best-of-rounds
      throughput, while latency percentiles pool every sample (a
      "best-of" p99 would not be a p99).  GATE: warm throughput >= 2x
      cold.  This is the serving claim of the plan cache: a skewed
      tenant workload is mostly answered without optimizing.

   3. open-zipfian — the same skewed draw pipelined open-loop, so
      latency includes queueing delay behind a single worker.

   4. overload — a pipelined burst of large clique queries into one
      worker with an aggressive shed threshold.  GATE: every request
      is answered (none dropped, none hung — a 60 s socket timeout
      converts a hang into a loud failure), every response is ok:true
      carrying a valid Degrade tier, and at least one was shed through
      the deadline clamp rather than refused.

   `bench serve --json BENCH_serve.json` refreshes the committed
   acceptance artifact. *)

module Server = Blitz_serve.Server
module Tenant = Blitz_serve.Tenant
module Plan_cache = Blitz_cache.Plan_cache
module Json = Blitz_util.Json
module Rng = Blitz_util.Rng

(* ---------------------------------------------------------------- *)
(* Socket client                                                     *)

let connect port =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let ic, oc = Unix.open_connection addr in
  (* A hung server must fail the gate, not wedge the bench. *)
  Unix.setsockopt_float (Unix.descr_of_in_channel ic) Unix.SO_RCVTIMEO 60.0;
  (ic, oc)

let disconnect (ic, _oc) = close_in_noerr ic

let send (_ic, oc) line =
  output_string oc line;
  output_char oc '\n'

let recv (ic, _oc) =
  flush _oc;
  match input_line ic with
  | line -> line
  | exception (End_of_file | Sys_error _) ->
    failwith "serve bench: server closed the connection (dropped request?)"

(* ---------------------------------------------------------------- *)
(* Requests and responses                                            *)

type spec = { n : int; topology : string; mean_card : float }

let request ~id spec =
  Printf.sprintf
    {|{"blitz":1,"id":%d,"method":"optimize","params":{"n":%d,"topology":"%s","mean_card":%.1f}}|}
    id spec.n spec.topology spec.mean_card

type reply = { ok : bool; tier : string option; shed : bool; from_cache : bool }

let parse_reply line =
  let v =
    match Json.of_string line with
    | Ok v -> v
    | Error msg -> failwith (Printf.sprintf "serve bench: bad response %S: %s" line msg)
  in
  let result = Json.member "result" v in
  let str field =
    match Option.bind result (Json.member field) with
    | Some (Json.String s) -> Some s
    | _ -> None
  in
  let flag field =
    match Option.bind result (Json.member field) with
    | Some (Json.Bool b) -> b
    | _ -> false
  in
  {
    ok = (match Json.member "ok" v with Some (Json.Bool b) -> b | _ -> false);
    tier = str "tier";
    shed = flag "shed";
    from_cache = flag "from_cache";
  }

let valid_tiers =
  [ "exact"; "dpccp"; "hybrid"; "greedy"; "simpli-squared" ]

(* ---------------------------------------------------------------- *)
(* Workload mixes                                                    *)

let n_gen = if Bench_config.fast then 9 else 10

(* Rank-skewed draw over a pool of generated-query specs.  The pool
   mixes topologies so hits exercise different plan shapes; mean_card
   varies so every pool entry is a distinct cache key. *)
let pool_size = if Bench_config.fast then 16 else 32

let pool =
  let topologies = [| "chain"; "star"; "cycle+2"; "clique" |] in
  Array.init pool_size (fun i ->
      {
        n = n_gen;
        topology = topologies.(i mod Array.length topologies);
        mean_card = 10.0 *. float_of_int (i + 1);
      })

let zipf_s = 1.1

let zipf_cdf =
  let w = Array.init pool_size (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) zipf_s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw rng =
  let u = Rng.float rng 1.0 in
  let rec find i = if i >= pool_size - 1 || u < zipf_cdf.(i) then i else find (i + 1) in
  pool.(find 0)

(* ---------------------------------------------------------------- *)
(* Measurement                                                       *)

let percentile sorted p =
  let len = Array.length sorted in
  if len = 0 then 0.0
  else sorted.(min (len - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int len)) - 1))

(* Closed loop: one request in flight; per-request latency is exact. *)
let closed_loop conn specs =
  let latencies =
    Array.mapi
      (fun i spec ->
        let t0 = Bench_config.wall () in
        send conn (request ~id:i spec);
        let reply = parse_reply (recv conn) in
        let dt = Bench_config.wall () -. t0 in
        (dt, reply))
      specs
  in
  Array.map fst latencies, Array.map snd latencies

(* Open loop: the whole burst is written before any response is read;
   latency for request i runs from its write to its response arrival,
   so it includes time spent queued behind earlier work.  A single
   worker answers optimize requests in arrival order, so pairing the
   i-th response with the i-th request is sound here. *)
let open_loop conn specs =
  let sent = Array.map (fun _ -> 0.0) specs in
  Array.iteri
    (fun i spec ->
      sent.(i) <- Bench_config.wall ();
      send conn (request ~id:i spec))
    specs;
  Array.mapi
    (fun i _ ->
      let reply = parse_reply (recv conn) in
      (Bench_config.wall () -. sent.(i), reply))
    specs
  |> fun pairs -> (Array.map fst pairs, Array.map snd pairs)

let summarize latencies =
  let ms = Array.map (fun s -> s *. 1000.0) latencies in
  Array.sort compare ms;
  (percentile ms 50.0, percentile ms 99.0)

let run_cell ~cell ~mode ~cache conn specs =
  let t0 = Bench_config.wall () in
  let latencies, replies =
    match mode with `Closed -> closed_loop conn specs | `Open -> open_loop conn specs
  in
  let elapsed = Bench_config.wall () -. t0 in
  let qps = float_of_int (Array.length specs) /. elapsed in
  let p50, p99 = summarize latencies in
  let hits = Array.fold_left (fun a r -> if r.from_cache then a + 1 else a) 0 replies in
  let sheds = Array.fold_left (fun a r -> if r.shed then a + 1 else a) 0 replies in
  Array.iter
    (fun r -> if not r.ok then failwith (Printf.sprintf "serve bench: %s: error response" cell))
    replies;
  Bench_json.emit ~experiment:"serve"
    [
      ("cell", Json.String cell);
      ("mode", Json.String (match mode with `Closed -> "closed" | `Open -> "open"));
      ("cache", Json.String cache);
      ("requests", Json.Int (Array.length specs));
      ("qps", Json.Float qps);
      ("p50_ms", Json.Float p50);
      ("p99_ms", Json.Float p99);
      ("cache_hits", Json.Int hits);
      ("sheds", Json.Int sheds);
    ];
  (qps, p50, p99, hits, sheds, replies)

let with_server cfg f =
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
      let conn = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> disconnect conn) (fun () -> f conn))

(* ---------------------------------------------------------------- *)

let qps_gate = 2.0

let run () =
  Bench_config.header "experiment serve: serving latency and overload behavior";
  let rows = ref [] in
  let row cell mode cache (qps, p50, p99, hits, sheds) note =
    rows :=
      [|
        cell; mode; cache;
        Printf.sprintf "%.0f" qps;
        Printf.sprintf "%.3f" p50;
        Printf.sprintf "%.3f" p99;
        string_of_int hits;
        string_of_int sheds;
        note;
      |]
      :: !rows
  in

  (* 1. Closed-loop, every query distinct: nothing can hit the cache. *)
  let k_cold = if Bench_config.fast then 30 else 100 in
  let cold_specs =
    Array.init k_cold (fun i ->
        { n = n_gen; topology = "chain"; mean_card = 1000.0 +. float_of_int i })
  in
  let q, a, b, h, s, _ =
    with_server (Server.config ~workers:1 ()) (fun conn ->
        run_cell ~cell:"closed-cold" ~mode:`Closed ~cache:"on(all-miss)" conn cold_specs)
  in
  row "closed-cold" "closed" "all-miss" (q, a, b, h, s) "";

  (* 2. Zipfian repeats, warm vs cache-disabled: the >=2x gate.  Both
     servers stay up for the whole comparison and the same draw
     sequence is replayed against each in alternation (interleaved
     best-of-rounds, the exp_cache protocol), so frequency drift hits
     both configurations alike.  The gate uses best-of-rounds qps;
     the percentiles pool every round's samples — a best-of p99 would
     not be a p99. *)
  let rounds = if Bench_config.fast then 3 else 7 in
  let draws = if Bench_config.fast then 120 else 400 in
  let rng = Rng.create ~seed:42 in
  let zipf_specs = Array.init draws (fun _ -> zipf_draw rng) in
  let timed_pass conn =
    let t0 = Bench_config.wall () in
    let latencies, replies = closed_loop conn zipf_specs in
    let qps = float_of_int draws /. (Bench_config.wall () -. t0) in
    Array.iter
      (fun r -> if not r.ok then failwith "serve bench: zipfian request failed")
      replies;
    let hits = Array.fold_left (fun a r -> if r.from_cache then a + 1 else a) 0 replies in
    (qps, latencies, hits)
  in
  let base = Server.config ~workers:1 () in
  let warm_server = Server.start base in
  let cold_server = Server.start { base with Server.cache = None } in
  let (warm_qps, wp50, wp99, whits), (cold_qps, cp50, cp99, chits) =
    Fun.protect
      ~finally:(fun () ->
        Server.stop warm_server;
        Server.stop cold_server)
      (fun () ->
        let warm_conn = connect (Server.port warm_server) in
        let cold_conn = connect (Server.port cold_server) in
        Fun.protect
          ~finally:(fun () ->
            disconnect warm_conn;
            disconnect cold_conn)
          (fun () ->
            (* Warm the cache: one untimed pass over the pool. *)
            let _, warmup = closed_loop warm_conn pool in
            Array.iter
              (fun r -> if not r.ok then failwith "serve bench: warmup request failed")
              warmup;
            let best_warm = ref 0.0 and best_cold = ref 0.0 in
            let warm_lats = ref [] and cold_lats = ref [] in
            let warm_hits = ref 0 and cold_hits = ref 0 in
            for _round = 1 to rounds do
              let q, l, h = timed_pass warm_conn in
              best_warm := Float.max !best_warm q;
              warm_lats := l :: !warm_lats;
              warm_hits := !warm_hits + h;
              let q, l, h = timed_pass cold_conn in
              best_cold := Float.max !best_cold q;
              cold_lats := l :: !cold_lats;
              cold_hits := !cold_hits + h
            done;
            let p lats = summarize (Array.concat lats) in
            let wp50, wp99 = p !warm_lats and cp50, cp99 = p !cold_lats in
            ( (!best_warm, wp50, wp99, !warm_hits),
              (!best_cold, cp50, cp99, !cold_hits) )))
  in
  let speedup = warm_qps /. cold_qps in
  let zipf_pass = speedup >= qps_gate in
  let emit_zipf cell cache qps p50 p99 hits =
    Bench_json.emit ~experiment:"serve"
      [
        ("cell", Json.String cell);
        ("mode", Json.String "closed");
        ("cache", Json.String cache);
        ("requests", Json.Int draws);
        ("rounds", Json.Int rounds);
        ("qps", Json.Float qps);
        ("p50_ms", Json.Float p50);
        ("p99_ms", Json.Float p99);
        ("cache_hits", Json.Int hits);
        ("sheds", Json.Int 0);
      ]
  in
  emit_zipf "zipfian-warm" "warm" warm_qps wp50 wp99 whits;
  emit_zipf "zipfian-cold" "off" cold_qps cp50 cp99 chits;
  row "zipfian-warm" "closed" "warm" (warm_qps, wp50, wp99, whits, 0)
    (Printf.sprintf "%.1fx %s" speedup (if zipf_pass then "pass" else "FAIL"));
  row "zipfian-cold" "closed" "off" (cold_qps, cp50, cp99, chits, 0) "";
  Bench_json.emit ~experiment:"serve"
    [
      ("cell", Json.String "zipfian-gate");
      ("rounds", Json.Int rounds);
      ("warm_qps", Json.Float warm_qps);
      ("cold_qps", Json.Float cold_qps);
      ("speedup", Json.Float speedup);
      ("gate", Json.Float qps_gate);
      ("pass", Json.Bool zipf_pass);
    ];

  (* 3. The same skew, pipelined open-loop: latency now includes the
     queue behind one worker. *)
  let k_open = if Bench_config.fast then 24 else 64 in
  let open_specs = Array.init k_open (fun _ -> zipf_draw rng) in
  let q, a, b, h, s, _ =
    with_server (Server.config ~workers:1 ()) (fun conn ->
        let _, warmup = closed_loop conn pool in
        Array.iter
          (fun r -> if not r.ok then failwith "serve bench: warmup request failed")
          warmup;
        run_cell ~cell:"open-zipfian" ~mode:`Open ~cache:"warm" conn open_specs)
  in
  row "open-zipfian" "open" "warm" (q, a, b, h, s) "";

  (* 4. Overload: a burst of large cliques into one worker, cache off,
     shedding after a queue depth of 1.  Every response must carry a
     valid tier; the burst forces most through the deadline clamp. *)
  let k_over = if Bench_config.fast then 8 else 16 in
  let over_specs =
    Array.init k_over (fun i ->
        { n = 11; topology = "clique"; mean_card = 100.0 *. float_of_int (i + 1) })
  in
  let over_cfg =
    Server.config ~workers:1 ~shed_queue:1 ~shed_deadline_ms:2.0 ()
  in
  let oq, oa, ob, oh, osheds, replies =
    with_server { over_cfg with Server.cache = None } (fun conn ->
        run_cell ~cell:"overload" ~mode:`Open ~cache:"off" conn over_specs)
  in
  let answered = Array.length replies in
  let all_ok = Array.for_all (fun r -> r.ok) replies in
  let bad_tier =
    Array.exists
      (fun r -> match r.tier with Some t -> not (List.mem t valid_tiers) | None -> true)
      replies
  in
  let over_pass = answered = k_over && all_ok && (not bad_tier) && osheds >= 1 in
  row "overload" "open" "off" (oq, oa, ob, oh, osheds)
    (if over_pass then "pass" else "FAIL");
  Bench_json.emit ~experiment:"serve"
    [
      ("cell", Json.String "overload-gate");
      ("requests", Json.Int k_over);
      ("answered", Json.Int answered);
      ("sheds", Json.Int osheds);
      ("all_ok", Json.Bool all_ok);
      ("all_tiers_valid", Json.Bool (not bad_tier));
      ("pass", Json.Bool over_pass);
    ];

  Printf.printf "generated queries: n=%d, zipf pool=%d (s=%.1f)\n\n" n_gen pool_size zipf_s;
  Blitz_util.Ascii_table.print
    ~header:[| "cell"; "loop"; "cache"; "qps"; "p50 ms"; "p99 ms"; "hits"; "sheds"; "gate" |]
    (Array.of_list (List.rev !rows));
  Printf.printf "\ngate: zipfian warm >= %.0fx cache-off throughput: %.1fx %s\n" qps_gate
    speedup
    (if zipf_pass then "pass" else "FAIL");
  Printf.printf
    "gate: overload burst of %d answered=%d sheds=%d all-ok=%b tiers-valid=%b: %s\n" k_over
    answered osheds all_ok (not bad_tier)
    (if over_pass then "pass" else "FAIL");
  if zipf_pass && over_pass then Printf.printf "gate: PASS\n"
  else begin
    Printf.printf "gate: FAIL\n";
    exit 1
  end
