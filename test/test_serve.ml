(* Blitz_serve: the wire codec, quota buckets, tenant parsing, and the
   live server.

   The codec tests pin the typed decode errors (a malformed line must
   map to a machine-readable code, never an exception — QCheck feeds
   the decoder garbage to prove totality).  The live-server tests drive
   a real socket through the full stack: quota exhaustion answers with
   a typed error instead of hanging, one tenant's cached plan is never
   served to another, and a pipelined overload burst sheds through the
   Degrade cascade — every response still carries a plan and a valid
   provenance tier.

   Sockets use a receive timeout, so a server bug fails the assertion
   rather than hanging the suite. *)

module Json = Blitz_util.Json
module Protocol = Blitz_serve.Protocol
module Quota = Blitz_serve.Quota
module Tenant = Blitz_serve.Tenant
module Server = Blitz_serve.Server
module Engine = Blitz_engine.Engine
module Registry = Blitz_engine.Registry
module Plan_cache = Blitz_cache.Plan_cache
module Degrade = Blitz_guard.Degrade
module Guard = Blitz_guard.Guard

(* ---- codec ---- *)

let decode_ok line =
  match Protocol.decode line with
  | Ok env -> env
  | Error rej -> Alcotest.failf "decode rejected %s: %s" line (Protocol.error_message rej.Protocol.error)

let decode_err line =
  match Protocol.decode line with
  | Ok _ -> Alcotest.failf "decode accepted %s" line
  | Error rej -> rej

let test_decode_optimize () =
  let line multiway =
    Printf.sprintf
      {|{"blitz":1,"id":7,"method":"optimize","tenant":"acme","params":{"relations":[["a",100],["b",10.5]],"edges":[[0,1,0.1]],"multiway":%b}}|}
      multiway
  in
  (* Every plan is binary: v1's multiway flag may be false, and true is
     refused rather than answered with a binary plan. *)
  (match decode_err (line true) with
  | { Protocol.error = Protocol.Bad_value { field = "params.multiway"; _ } as e; rid } ->
    Alcotest.(check string) "multiway:true code" "invalid_request" (Protocol.error_code e);
    Alcotest.(check bool) "multiway:true id recovered" true (rid = Json.Int 7)
  | rej -> Alcotest.failf "multiway:true: %s" (Protocol.error_message rej.Protocol.error));
  let env = decode_ok (line false) in
  Alcotest.(check bool) "id echoed" true (env.Protocol.id = Json.Int 7);
  Alcotest.(check (option string)) "tenant" (Some "acme") env.Protocol.tenant;
  match env.Protocol.request with
  | Protocol.Run
      { call = Protocol.Optimize; query = Protocol.Inline { relations; edges }; multiway = false }
    ->
    Alcotest.(check int) "relations" 2 (List.length relations);
    Alcotest.(check bool) "cards" true (relations = [ ("a", 100.); ("b", 10.5) ]);
    Alcotest.(check bool) "edges" true (edges = [ (0, 1, 0.1) ])
  | _ -> Alcotest.fail "wrong request shape"

let test_decode_generated () =
  let env =
    decode_ok {|{"blitz":1,"method":"explain","params":{"n":8,"topology":"star","mean_card":50}}|}
  in
  Alcotest.(check bool) "id defaults to null" true (env.Protocol.id = Json.Null);
  match env.Protocol.request with
  | Protocol.Run { call = Protocol.Explain; query = Protocol.Generated g; multiway = false } ->
    Alcotest.(check int) "n" 8 g.n;
    Alcotest.(check string) "topology" "star" g.topology;
    Alcotest.(check (float 0.)) "mean_card" 50. g.mean_card;
    Alcotest.(check (float 0.)) "variability" 0. g.variability
  | _ -> Alcotest.fail "wrong request shape"

let check_code line expected =
  let rej = decode_err line in
  Alcotest.(check string)
    (Printf.sprintf "code for %s" line)
    expected
    (Protocol.error_code rej.Protocol.error)

let test_decode_errors () =
  check_code "not json" "parse_error";
  check_code "[1,2,3]" "invalid_request";
  check_code {|{"id":1,"method":"optimize"}|} "unsupported_version";
  check_code {|{"blitz":2,"method":"optimize"}|} "unsupported_version";
  check_code {|{"blitz":1,"method":"destroy"}|} "unknown_method";
  check_code {|{"blitz":1,"method":"optimize"}|} "invalid_request";
  check_code {|{"blitz":1,"method":"optimize","params":{"n":1}}|} "invalid_request";
  check_code {|{"blitz":1,"method":"optimize","params":{"n":6,"topology":"moebius"}}|}
    "invalid_request";
  check_code {|{"blitz":1,"method":"optimize","params":{"relations":[["a"]]}}|} "invalid_request";
  check_code {|{"blitz":1,"method":"optimize","tenant":7,"params":{"n":4}}|} "invalid_request";
  (* The id survives into the rejection when the line parses as JSON. *)
  let rej = decode_err {|{"blitz":9,"id":"q-1","method":"stats"}|} in
  Alcotest.(check bool) "id recovered" true (rej.Protocol.rid = Json.String "q-1")

let test_response_encoding () =
  Alcotest.(check string) "ok shape"
    {|{"blitz":1,"id":3,"ok":true,"result":{"x":1}}|}
    (Protocol.ok_response ~id:(Json.Int 3) (Json.Obj [ ("x", Json.Int 1) ]));
  let err = Protocol.error_response ~id:Json.Null ~code:"quota_exhausted" ~message:"m" in
  match Json.of_string err with
  | Error e -> Alcotest.fail e
  | Ok v ->
    Alcotest.(check bool) "ok:false" true (Json.member "ok" v = Some (Json.Bool false));
    let code = Option.bind (Json.member "error" v) (Json.member "code") in
    Alcotest.(check bool) "code" true (code = Some (Json.String "quota_exhausted"))

(* Totality: whatever bytes arrive, decode returns a typed result and
   the rejection renders as valid JSON. *)
let test_decode_total_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"decode is total on arbitrary bytes"
       QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 200))
       (fun s ->
         match Protocol.decode s with
         | Ok _ -> true
         | Error rej -> (
           ignore (Protocol.error_message rej.Protocol.error);
           match Json.of_string (Protocol.rejected_response rej) with
           | Ok _ -> true
           | Error _ -> false)))

(* Mutate a valid request at one random byte: still total, and never a
   crash deeper in the stack. *)
let test_decode_mutation_qcheck =
  let base =
    {|{"blitz":1,"id":1,"method":"optimize","params":{"relations":[["a",100],["b",10]],"edges":[[0,1,0.1]]}}|}
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"decode is total under single-byte mutation"
       QCheck2.Gen.(pair (0 -- (String.length base - 1)) (char_range '\000' '\255'))
       (fun (i, c) ->
         let b = Bytes.of_string base in
         Bytes.set b i c;
         match Protocol.decode (Bytes.to_string b) with
         | Ok _ -> true
         | Error rej -> Result.is_ok (Json.of_string (Protocol.rejected_response rej))))

(* ---- quota ---- *)

let test_quota_bucket () =
  let q = Quota.create ~burst:2 ~rps:1. () in
  Alcotest.(check bool) "limited" true (Quota.is_limited q);
  Alcotest.(check bool) "1st" true (Quota.try_acquire ~now:0. q);
  Alcotest.(check bool) "2nd" true (Quota.try_acquire ~now:0. q);
  Alcotest.(check bool) "3rd exhausted" false (Quota.try_acquire ~now:0. q);
  Alcotest.(check bool) "refilled after 1s" true (Quota.try_acquire ~now:1. q);
  Alcotest.(check bool) "but only one token" false (Quota.try_acquire ~now:1. q);
  (* Refill clamps at burst. *)
  Alcotest.(check (float 1e-9)) "clamped" 2. (Quota.remaining ~now:100. q);
  (* Time moving backwards refills nothing. *)
  let q2 = Quota.create ~burst:1 ~rps:1000. () in
  Alcotest.(check bool) "spend" true (Quota.try_acquire ~now:50. q2);
  Alcotest.(check bool) "backwards" false (Quota.try_acquire ~now:0. q2)

let test_quota_zero_rps () =
  let q = Quota.create ~burst:1 () in
  Alcotest.(check bool) "burst spent" true (Quota.try_acquire ~now:0. q);
  Alcotest.(check bool) "never refills" false (Quota.try_acquire ~now:1e9 q);
  let u = Quota.unlimited () in
  Alcotest.(check bool) "unlimited" true (Quota.try_acquire u);
  Alcotest.(check (float 0.)) "unlimited remaining" infinity (Quota.remaining u)

let test_tenant_spec () =
  (match Tenant.parse_spec "acme:deadline-ms=50,table-mb=8,rps=100,burst=20;beta:rps=5" with
  | Error e -> Alcotest.fail e
  | Ok [ a; b ] ->
    Alcotest.(check string) "name" "acme" a.Tenant.name;
    Alcotest.(check bool) "deadline" true (a.Tenant.deadline_ms = Some 50.);
    Alcotest.(check bool) "table" true (a.Tenant.max_table_bytes = Some (8 * 1024 * 1024));
    Alcotest.(check bool) "rps" true (a.Tenant.rps = Some 100.);
    Alcotest.(check bool) "burst" true (a.Tenant.burst = Some 20);
    Alcotest.(check string) "second" "beta" b.Tenant.name;
    Alcotest.(check bool) "beta deadline" true (b.Tenant.deadline_ms = None)
  | Ok l -> Alcotest.failf "expected 2 tenants, got %d" (List.length l));
  let bad s = match Tenant.parse_spec s with Ok _ -> Alcotest.failf "accepted %s" s | Error _ -> () in
  bad "acme:rps=fast";
  bad "acme:deadline-ms=-1";
  bad "acme:frobs=1";
  bad "a b:rps=1";
  bad "acme;acme";
  (* A table size is checked as given and rounded up to whole bytes. *)
  (match Tenant.parse_spec "a:table-mb=0.0000001" with
  | Ok [ a ] -> Alcotest.(check (option int)) "tiny table" (Some 1) a.Tenant.max_table_bytes
  | Ok _ -> Alcotest.fail "expected one tenant"
  | Error e -> Alcotest.fail e);
  (* Every refusal names the tenant and the setting, as the parser's
     other errors do, and no internal function. *)
  List.iter
    (fun (spec, message) ->
      match Tenant.parse_spec spec with
      | Ok _ -> Alcotest.failf "accepted %s" spec
      | Error e -> Alcotest.(check string) spec message e)
    [
      ("a:table-mb=0", {|serve: tenant "a": table-mb must be positive|});
      ("a:table-mb=-1", {|serve: tenant "a": table-mb must be positive|});
      ("a:deadline-ms=0", {|serve: tenant "a": deadline-ms must be positive|});
      ("a:rps=-1", {|serve: tenant "a": rps must be non-negative|});
      ("a:burst=0", {|serve: tenant "a": burst must be at least 1|});
      ("a b:rps=1", {|serve: tenant "a b": invalid name (want [A-Za-z0-9_.-]+)|});
    ]

(* ---- cache partitioning on the server's path (the guard's cache round) ---- *)

let test_cache_tag_partitions () =
  let cache = Plan_cache.create () in
  Engine.with_session ~cache (fun s ->
      let graph = Blitz_graph.Join_graph.of_edges ~n:3 [ (0, 1, 0.1); (1, 2, 0.01) ] in
      let catalog = Blitz_catalog.Catalog.of_list [ ("a", 100.); ("b", 10.); ("c", 50.) ] in
      let problem = Registry.problem ~graph catalog in
      let _ = Guard.optimize ~session:s ~cache_tag:"acme" Blitz_cost.Cost_model.kdnl catalog graph in
      Alcotest.(check bool) "tagged hit" true
        (Engine.cache_find ~cache_tag:"acme" s ~optimizer:"exact" problem <> None);
      Alcotest.(check bool) "other tenant misses" true
        (Engine.cache_find ~cache_tag:"beta" s ~optimizer:"exact" problem = None);
      Alcotest.(check bool) "untagged misses" true
        (Engine.cache_find s ~optimizer:"exact" problem = None))

(* ---- live server ---- *)

let with_server cfg f =
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f (Server.port t))

let connect port =
  let ic, oc = Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) in
  (* A stuck server should fail the test, not hang the suite. *)
  Unix.setsockopt_float (Unix.descr_of_in_channel ic) Unix.SO_RCVTIMEO 60.;
  (ic, oc)

let close_client (ic, oc) =
  (try Unix.shutdown (Unix.descr_of_out_channel oc) Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  close_in_noerr ic

let rpc (ic, oc) line =
  output_string oc (line ^ "\n");
  flush oc;
  match input_line ic with
  | line -> Blitz_util.Err.get (Json.of_string line)
  | exception End_of_file -> Alcotest.fail "server closed the connection early"

let get_field path v =
  let rec go v = function
    | [] -> Some v
    | k :: rest -> ( match Json.member k v with Some v -> go v rest | None -> None)
  in
  go v path

let expect_bool msg path v expected =
  match get_field path v with
  | Some (Json.Bool b) -> Alcotest.(check bool) msg expected b
  | other -> Alcotest.failf "%s: field %s is %s" msg (String.concat "." path)
               (match other with Some j -> Json.to_string j | None -> "missing")

let expect_string path v =
  match get_field path v with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "field %s missing or not a string" (String.concat "." path)

let inline_query ~id ~tenant =
  Printf.sprintf
    {|{"blitz":1,"id":%d,"method":"optimize","tenant":"%s","params":{"relations":[["a",100],["b",10],["c",50],["d",25]],"edges":[[0,1,0.1],[1,2,0.01],[2,3,0.5]]}}|}
    id tenant

let test_quota_exhaustion_typed () =
  let tenants = Blitz_util.Err.get (Tenant.parse_spec "acme:burst=1") in
  with_server (Server.config ~port:0 ~tenants ()) (fun port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) (fun () ->
          let r1 = rpc c (inline_query ~id:1 ~tenant:"acme") in
          expect_bool "first request served" [ "ok" ] r1 true;
          let r2 = rpc c (inline_query ~id:2 ~tenant:"acme") in
          expect_bool "second request rejected" [ "ok" ] r2 false;
          Alcotest.(check string) "typed code" "quota_exhausted"
            (expect_string [ "error"; "code" ] r2);
          (* The default tenant's quota is untouched. *)
          let r3 = rpc c (inline_query ~id:3 ~tenant:"default") in
          expect_bool "other tenant unaffected" [ "ok" ] r3 true))

let test_tenant_cache_isolation () =
  let tenants = Blitz_util.Err.get (Tenant.parse_spec "acme;beta") in
  with_server (Server.config ~port:0 ~tenants ()) (fun port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) (fun () ->
          let r1 = rpc c (inline_query ~id:1 ~tenant:"acme") in
          expect_bool "cold" [ "result"; "from_cache" ] r1 false;
          let r2 = rpc c (inline_query ~id:2 ~tenant:"acme") in
          expect_bool "same tenant warm" [ "result"; "from_cache" ] r2 true;
          (* The very same query from another tenant must re-optimize:
             the shared cache is partitioned by the tenant tag. *)
          let r3 = rpc c (inline_query ~id:3 ~tenant:"beta") in
          expect_bool "other tenant cold" [ "result"; "from_cache" ] r3 false;
          Alcotest.(check string) "same plan, own entry"
            (expect_string [ "result"; "plan" ] r1)
            (expect_string [ "result"; "plan" ] r3)))

let valid_tiers = [ "exact"; "dpccp"; "hybrid"; "greedy"; "simpli-squared" ]

let test_overload_sheds_with_provenance () =
  (* One worker, shedding from depth 1: a pipelined burst must drain
     through the cascade — every response ok, every tier valid, no
     request dropped or hung. *)
  let burst = 8 in
  with_server (Server.config ~port:0 ~workers:1 ~shed_queue:1 ~shed_deadline_ms:2. ()) (fun port ->
      let ((ic, oc) as c) = connect port in
      Fun.protect ~finally:(fun () -> close_client c) (fun () ->
          for i = 1 to burst do
            output_string oc
              (Printf.sprintf
                 {|{"blitz":1,"id":%d,"method":"optimize","params":{"n":11,"topology":"clique"}}|}
                 i);
            output_string oc "\n"
          done;
          flush oc;
          let sheds = ref 0 in
          for i = 1 to burst do
            match input_line ic with
            | exception End_of_file -> Alcotest.failf "response %d never arrived" i
            | line ->
              let v = Blitz_util.Err.get (Json.of_string line) in
              expect_bool (Printf.sprintf "response %d ok" i) [ "ok" ] v true;
              let tier = expect_string [ "result"; "tier" ] v in
              Alcotest.(check bool)
                (Printf.sprintf "response %d tier %s valid" i tier)
                true (List.mem tier valid_tiers);
              (match get_field [ "result"; "shed" ] v with
              | Some (Json.Bool true) -> incr sheds
              | _ -> ())
          done;
          Alcotest.(check bool)
            (Printf.sprintf "burst shed through the cascade (%d/%d)" !sheds burst)
            true (!sheds >= 1)))

(* The server's queue holds at most 4,096 requests.  One worker is kept
   busy by an n = 19 clique under kappa_0 (about a second on one core),
   far longer than the event loop takes to read a pipelined burst of
   small requests behind it: the first 4,096 queue and are answered
   with plans, each request past them gets a typed [overloaded] error at
   once, and the server still answers afterwards. *)
let test_queue_bound_overloads () =
  let max_queue = 4096 and surplus = 64 in
  let burst = max_queue + surplus in
  with_server (Server.config ~port:0 ~workers:1 ~model:Blitz_cost.Cost_model.naive ())
    (fun port ->
      let ((ic, oc) as c) = connect port in
      Fun.protect ~finally:(fun () -> close_client c) (fun () ->
          let send line =
            output_string oc line;
            output_char oc '\n'
          in
          send {|{"blitz":1,"id":0,"method":"optimize","params":{"n":19,"topology":"clique"}}|};
          flush oc;
          (* Wait until the worker has taken the slow query off the queue. *)
          let rec drained k =
            let h = rpc c (Printf.sprintf {|{"blitz":1,"id":%d,"method":"health"}|} (-k)) in
            match get_field [ "result"; "queue_depth" ] h with
            | Some (Json.Int 0) -> ()
            | _ when k < 200 ->
              Unix.sleepf 0.005;
              drained (k + 1)
            | _ -> Alcotest.fail "the worker never took the slow query"
          in
          drained 1;
          for i = 1 to burst do
            send
              (Printf.sprintf
                 {|{"blitz":1,"id":%d,"method":"optimize","params":{"n":4,"topology":"chain"}}|} i)
          done;
          flush oc;
          let responses = Hashtbl.create burst in
          for _ = 0 to burst do
            match input_line ic with
            | exception End_of_file -> Alcotest.fail "server closed the connection early"
            | line -> (
              let v = Blitz_util.Err.get (Json.of_string line) in
              match Json.member "id" v with
              | Some (Json.Int id) ->
                if Hashtbl.mem responses id then Alcotest.failf "request %d answered twice" id;
                Hashtbl.add responses id v
              | _ -> Alcotest.failf "response without an id: %s" line)
          done;
          let overloaded = ref 0 in
          for id = 0 to burst do
            match Hashtbl.find_opt responses id with
            | None -> Alcotest.failf "request %d never answered" id
            | Some v when id > max_queue ->
              expect_bool (Printf.sprintf "request %d refused" id) [ "ok" ] v false;
              Alcotest.(check string)
                (Printf.sprintf "request %d typed overloaded" id)
                "overloaded"
                (expect_string [ "error"; "code" ] v);
              incr overloaded
            | Some v ->
              expect_bool (Printf.sprintf "request %d ok" id) [ "ok" ] v true;
              let tier = expect_string [ "result"; "tier" ] v in
              Alcotest.(check bool)
                (Printf.sprintf "request %d tier %s valid" id tier)
                true (List.mem tier valid_tiers);
              ignore (expect_string [ "result"; "plan" ] v)
          done;
          Alcotest.(check int) "the surplus was refused" surplus !overloaded;
          let h = rpc c {|{"blitz":1,"id":"after","method":"health"}|} in
          expect_bool "healthy afterwards" [ "ok" ] h true))

let test_malformed_line_keeps_connection () =
  with_server (Server.config ~port:0 ()) (fun port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) (fun () ->
          let r1 = rpc c "this is not json" in
          expect_bool "rejected" [ "ok" ] r1 false;
          Alcotest.(check string) "parse_error" "parse_error" (expect_string [ "error"; "code" ] r1);
          (* A request for the retired multiway planner gets the
             decoder's typed refusal on the wire. *)
          let mw =
            rpc c {|{"blitz":1,"id":1,"method":"optimize","params":{"n":4,"multiway":true}}|}
          in
          expect_bool "multiway refused" [ "ok" ] mw false;
          Alcotest.(check string) "invalid_request" "invalid_request"
            (expect_string [ "error"; "code" ] mw);
          (* The framing resynchronizes on the newline: the connection
             still serves well-formed requests. *)
          let r2 = rpc c {|{"blitz":1,"id":2,"method":"health"}|} in
          expect_bool "healthy afterwards" [ "ok" ] r2 true;
          Alcotest.(check string) "status ok" "ok" (expect_string [ "result"; "status" ] r2)))

(* A request line one byte over [Protocol.max_line_bytes] is refused
   with a typed parse_error, whether or not its newline has arrived: the
   event loop refuses a buffer past the limit that holds no newline yet
   and closes the connection, and the decoder refuses a complete line
   past it.  The server answers a new connection afterwards.  A line of
   exactly [max_line_bytes + 1] bytes is read whole before the refusal,
   so the close leaves no unread bytes that would reset the connection
   before the error arrives. *)
let oversized_line_refused ~newline () =
  let line = String.make (Protocol.max_line_bytes + 1) 'x' ^ if newline then "\n" else "" in
  with_server (Server.config ~port:0 ()) (fun port ->
      let ((ic, oc) as c) = connect port in
      Fun.protect ~finally:(fun () -> close_client c) (fun () ->
          output_string oc line;
          flush oc;
          match input_line ic with
          | exception End_of_file -> Alcotest.fail "closed without an answer"
          | reply ->
            let v = Blitz_util.Err.get (Json.of_string reply) in
            expect_bool "refused" [ "ok" ] v false;
            Alcotest.(check string)
              "parse_error" "parse_error"
              (expect_string [ "error"; "code" ] v));
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) (fun () ->
          let h = rpc c {|{"blitz":1,"id":1,"method":"health"}|} in
          expect_bool "healthy afterwards" [ "ok" ] h true))

(* A client that sends an optimize request and hangs up before its
   answer (an n = 16 clique, about 0.2 s on one core) leaves the server
   serving: the worker finishes the query, the write to the dead
   connection fails quietly, and a new connection gets answers from the
   event loop and from the worker. *)
let test_client_gone_before_answer () =
  with_server (Server.config ~port:0 ~workers:1 ()) (fun port ->
      let ((_, oc) as gone) = connect port in
      output_string oc
        {|{"blitz":1,"id":1,"method":"optimize","params":{"n":16,"topology":"clique"}}|};
      output_char oc '\n';
      flush oc;
      close_client gone;
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) (fun () ->
          let h = rpc c {|{"blitz":1,"id":2,"method":"health"}|} in
          expect_bool "health answered" [ "ok" ] h true;
          let r = rpc c (inline_query ~id:3 ~tenant:"default") in
          expect_bool "optimize answered" [ "ok" ] r true))

(* A generated query the topology cannot cover at its size (cycle+2
   needs seven relations) is refused with a typed invalid_request, not
   an internal error, and the connection keeps serving. *)
let test_infeasible_workload_refused () =
  with_server (Server.config ~port:0 ()) (fun port ->
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_client c) (fun () ->
          let r =
            rpc c {|{"blitz":1,"id":1,"method":"optimize","params":{"n":6,"topology":"cycle+2"}}|}
          in
          expect_bool "refused" [ "ok" ] r false;
          Alcotest.(check string) "invalid_request" "invalid_request"
            (expect_string [ "error"; "code" ] r);
          let h = rpc c {|{"blitz":1,"id":2,"method":"health"}|} in
          expect_bool "healthy afterwards" [ "ok" ] h true))

(* [Unix.select] cannot watch a descriptor at or above FD_SETSIZE
   (1024): a connection accepted there is answered with a typed
   [overloaded] error and closed, and the loop keeps serving.  Holding
   1100 descriptors puts the next accepted one past 1024, since each
   open takes the lowest free number.  Skipped where the process may
   not open that many. *)
let test_unwatchable_connection_refused () =
  with_server (Server.config ~port:0 ()) (fun port ->
      let early = connect port in
      Fun.protect ~finally:(fun () -> close_client early) (fun () ->
          let held = ref [] in
          let release () = List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !held in
          Fun.protect ~finally:release (fun () ->
              (match
                 for _ = 1 to 1100 do
                   held := Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 :: !held
                 done
               with
              | () -> ()
              | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
                release ();
                held := [];
                Alcotest.skip ());
              let ((ic, _) as late) = connect port in
              Fun.protect ~finally:(fun () -> close_client late) (fun () ->
                  match input_line ic with
                  | exception End_of_file -> Alcotest.fail "refused without an answer"
                  | line ->
                    let v = Blitz_util.Err.get (Json.of_string line) in
                    expect_bool "refused" [ "ok" ] v false;
                    Alcotest.(check string) "typed code" "overloaded"
                      (expect_string [ "error"; "code" ] v);
                    Alcotest.(check bool) "then closed" true
                      (match input_line ic with _ -> false | exception End_of_file -> true)));
          (* The loop survived: the connection opened before still gets
             answers, and so does a new one once descriptors are free. *)
          let r = rpc early {|{"blitz":1,"id":1,"method":"health"}|} in
          expect_bool "early connection still served" [ "ok" ] r true;
          let fresh = connect port in
          Fun.protect ~finally:(fun () -> close_client fresh) (fun () ->
              let r = rpc fresh (inline_query ~id:2 ~tenant:"default") in
              expect_bool "new connection served" [ "ok" ] r true)))

(* The event loop reads every connection through one buffer; each read
   must land in its own connection's line buffer.  Two clients send half
   a request each, then the rest, interleaved, with pauses so the
   server sees four separate reads.  Each must get its own answer, the
   one the same line gets when sent whole. *)
let test_interleaved_partial_lines () =
  let line_a = inline_query ~id:1 ~tenant:"default"
  and line_b =
    {|{"blitz":1,"id":2,"method":"optimize","params":{"relations":[["p",7],["q",300],["r",20]],"edges":[[0,1,0.05],[1,2,0.2]]}}|}
  in
  with_server (Server.config ~port:0 ()) (fun port ->
      let a = connect port and b = connect port in
      Fun.protect
        ~finally:(fun () ->
          close_client a;
          close_client b)
        (fun () ->
          let send (_, oc) s =
            output_string oc s;
            flush oc;
            Unix.sleepf 0.05
          in
          let half s = String.length s / 2 in
          let head s = String.sub s 0 (half s)
          and tail s = String.sub s (half s) (String.length s - half s) in
          send a (head line_a);
          send b (head line_b);
          send a (tail line_a ^ "\n");
          send b (tail line_b ^ "\n");
          let reply (ic, _) =
            match input_line ic with
            | line -> Blitz_util.Err.get (Json.of_string line)
            | exception End_of_file -> Alcotest.fail "server closed the connection early"
          in
          let ra = reply a and rb = reply b in
          List.iter
            (fun (name, r, id, whole) ->
              expect_bool (name ^ " ok") [ "ok" ] r true;
              Alcotest.(check (option string))
                (name ^ " id") (Some (string_of_int id))
                (Option.map Json.to_string (Json.member "id" r));
              let w =
                let c = connect port in
                Fun.protect ~finally:(fun () -> close_client c) (fun () -> rpc c whole)
              in
              Alcotest.(check string) (name ^ " plan as sent whole")
                (expect_string [ "result"; "plan" ] w)
                (expect_string [ "result"; "plan" ] r);
              Alcotest.(check (option string)) (name ^ " cost as sent whole")
                (Option.map Json.to_string (get_field [ "result"; "cost" ] w))
                (Option.map Json.to_string (get_field [ "result"; "cost" ] r)))
            [ ("a", ra, 1, line_a); ("b", rb, 2, line_b) ]))

let suite =
  [
    Alcotest.test_case "decode: optimize with inline stats" `Quick test_decode_optimize;
    Alcotest.test_case "decode: generated workload defaults" `Quick test_decode_generated;
    Alcotest.test_case "decode: typed errors and codes" `Quick test_decode_errors;
    Alcotest.test_case "encode: response shapes" `Quick test_response_encoding;
    test_decode_total_qcheck;
    test_decode_mutation_qcheck;
    Alcotest.test_case "quota: token bucket refill" `Quick test_quota_bucket;
    Alcotest.test_case "quota: zero rps never refills" `Quick test_quota_zero_rps;
    Alcotest.test_case "tenant: spec parsing" `Quick test_tenant_spec;
    Alcotest.test_case "cache: tenant tag partitions entries" `Quick test_cache_tag_partitions;
    Alcotest.test_case "server: quota exhaustion is a typed error" `Quick
      test_quota_exhaustion_typed;
    Alcotest.test_case "server: tenant cache isolation" `Quick test_tenant_cache_isolation;
    Alcotest.test_case "server: overload sheds with provenance" `Quick
      test_overload_sheds_with_provenance;
    Alcotest.test_case "server: a burst past the queue bound is refused, typed" `Quick
      test_queue_bound_overloads;
    Alcotest.test_case "server: malformed line keeps the connection" `Quick
      test_malformed_line_keeps_connection;
    Alcotest.test_case "server: interleaved partial lines" `Quick test_interleaved_partial_lines;
    Alcotest.test_case "server: an oversized partial line is a typed parse_error" `Quick
      (oversized_line_refused ~newline:false);
    Alcotest.test_case "server: an oversized whole line is a typed parse_error" `Quick
      (oversized_line_refused ~newline:true);
    Alcotest.test_case "server: a client gone before its answer leaves it serving" `Quick
      test_client_gone_before_answer;
    Alcotest.test_case "server: an infeasible generated query is a typed error" `Quick
      test_infeasible_workload_refused;
    Alcotest.test_case "server: a connection select cannot watch gets a typed refusal" `Quick
      test_unwatchable_connection_refused;
  ]
