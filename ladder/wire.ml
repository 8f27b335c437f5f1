(* The bench's side of the NDJSON protocol: one loopback connection per
   server, request lines out, parsed replies in. *)

module Json = Blitz_util.Json
module Server = Blitz_serve.Server
module Plan_cache = Blitz_cache.Plan_cache

(* A request with no reply within this long counts as failed. *)
let reply_timeout_s = 10.

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect port =
  let ic, oc = Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) in
  let fd = Unix.descr_of_in_channel ic in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { ic; oc; fd }

let close c = close_in_noerr c.ic

(* One request in flight: write one line, block for its reply.  [None] on
   timeout or a closed connection. *)
let roundtrip c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  match input_line c.ic with
  | reply -> Some reply
  | exception (End_of_file | Sys_error _) -> None

type reply = {
  plan : string;
  cost : float;
  tier : string;
  from_cache : bool;
  server_ms : float;
}

(* The reply's id (-1 when absent) and the reply, or the error code of an
   ok:false response, or why the line is not a well-formed reply. *)
let parse line =
  match Json.of_string line with
  | Error msg -> (-1, Error ("unparseable: " ^ msg))
  | Ok v -> (
    let id = match Json.member "id" v with Some (Json.Int i) -> i | _ -> -1 in
    ( id,
      match (Json.member "ok" v, Json.member "result" v) with
    | Some (Json.Bool true), Some r -> (
      let field k = Json.member k r in
      match
        ( field "plan",
          Option.bind (field "cost") Json.to_float_opt,
          field "tier",
          field "from_cache",
          Option.bind (field "elapsed_ms") Json.to_float_opt )
      with
      | ( Some (Json.String plan),
          Some cost,
          Some (Json.String tier),
          Some (Json.Bool from_cache),
          Some server_ms ) ->
        Ok { plan; cost; tier; from_cache; server_ms }
      | _ -> Error "reply lacks a result field")
    | _ -> (
      match Option.bind (Json.member "error" v) (Json.member "code") with
      | Some (Json.String code) -> Error ("error reply: " ^ code)
      | _ -> Error "reply is neither ok nor an error") ))

(* A one-worker server over a cache the bench owns, so its statistics
   can be read from outside. *)
type stack = { server : Server.t; cache : Plan_cache.t; conn : conn }

let start ~model ~cache_bytes () =
  let cache = Plan_cache.create ~max_bytes:cache_bytes () in
  let server = Server.start (Server.config ~workers:1 ~model ~cache ()) in
  { server; cache; conn = connect (Server.port server) }

let stop s =
  close s.conn;
  Server.stop s.server
