module Json = Blitz_util.Json
module Err = Blitz_util.Err
module Topology = Blitz_graph.Topology

let version = 1
let max_line_bytes = 1024 * 1024

type query =
  | Inline of { relations : (string * float) list; edges : (int * int * float) list }
  | Generated of { n : int; topology : string; mean_card : float; variability : float }

type call = Optimize | Explain

type request =
  | Run of { call : call; query : query; multiway : bool }
  | Stats
  | Health

type envelope = { id : Json.t; tenant : string option; request : request }

type decode_error =
  | Parse of string
  | Version of int option
  | Missing of string
  | Wrong_type of { field : string; expected : string }
  | Bad_value of { field : string; detail : string }
  | Unknown_method of string

type rejected = { rid : Json.t; error : decode_error }

let error_code = function
  | Parse _ -> "parse_error"
  | Version _ -> "unsupported_version"
  | Missing _ | Wrong_type _ | Bad_value _ -> "invalid_request"
  | Unknown_method _ -> "unknown_method"

let error_message = function
  | Parse msg ->
    (* [Json.of_string] already prefixed its own scope; keep one scope. *)
    Err.format ~scope:"serve" "%s" msg
  | Version None ->
    Err.format ~scope:"serve" "missing protocol version (send \"blitz\": %d)" version
  | Version (Some v) ->
    Err.format ~scope:"serve" "unsupported protocol version %d (this server speaks %d)" v version
  | Missing field -> Err.format ~scope:"serve" "missing required field %S" field
  | Wrong_type { field; expected } -> Err.format ~scope:"serve" "field %S must be %s" field expected
  | Bad_value { field; detail } -> Err.format ~scope:"serve" "bad value for %S: %s" field detail

  | Unknown_method m ->
    Err.format ~scope:"serve" "unknown method %S (expected optimize, explain, stats or health)" m

(* Decoding is structured as a tiny exception-driven validator: each
   helper raises [Reject] with the typed error, and [decode] is the one
   catch site.  The exception never escapes this module. *)
exception Reject of decode_error

let reject e = raise (Reject e)

let obj_member key json = Json.member key json

let get_string field = function
  | Json.String s -> s
  | _ -> reject (Wrong_type { field; expected = "a string" })

let get_bool field = function
  | Json.Bool b -> b
  | _ -> reject (Wrong_type { field; expected = "a boolean" })

let get_int field = function
  | Json.Int i -> i
  | _ -> reject (Wrong_type { field; expected = "an integer" })

let get_number field v =
  match Json.to_float_opt v with
  | Some x -> x
  | None -> reject (Wrong_type { field; expected = "a number" })

let get_list field = function
  | Json.List l -> l
  | _ -> reject (Wrong_type { field; expected = "an array" })

let parse_relations field v =
  get_list field v
  |> List.mapi (fun i item ->
         let where = Printf.sprintf "%s[%d]" field i in
         match item with
         | Json.List [ Json.String name; card ] -> (name, get_number where card)
         | _ -> reject (Bad_value { field = where; detail = "expected a [name, cardinality] pair" }))

let parse_edges field v =
  get_list field v
  |> List.mapi (fun i item ->
         let where = Printf.sprintf "%s[%d]" field i in
         match item with
         | Json.List [ Json.Int a; Json.Int b; sel ] -> (a, b, get_number where sel)
         | _ ->
           reject (Bad_value { field = where; detail = "expected an [a, b, selectivity] triple" }))

(* The generated-workload cap: beyond this the DP tiers are skipped by
   eligibility anyway and the catalog/graph build cost starts to matter
   on the event path.  Inline queries carry their own statistics and are
   bounded by the sanitizer instead. *)
let max_generated_n = 30

let parse_generated params n_field =
  let n = get_int "params.n" n_field in
  if n < 2 || n > max_generated_n then
    reject
      (Bad_value
         { field = "params.n"; detail = Printf.sprintf "must be in [2, %d]" max_generated_n });
  let topology =
    match obj_member "topology" params with
    | None -> "chain"
    | Some v -> (
      let s = get_string "params.topology" v in
      match Topology.of_string s with
      | Ok _ -> s
      | Error msg -> reject (Bad_value { field = "params.topology"; detail = msg }))
  in
  let mean_card =
    match obj_member "mean_card" params with
    | None -> 100.
    | Some v ->
      let x = get_number "params.mean_card" v in
      if x <= 0. || not (Float.is_finite x) then
        reject (Bad_value { field = "params.mean_card"; detail = "must be positive and finite" });
      x
  in
  let variability =
    match obj_member "variability" params with
    | None -> 0.
    | Some v ->
      let x = get_number "params.variability" v in
      if x < 0. || x > 1. then
        reject (Bad_value { field = "params.variability"; detail = "must be in [0, 1]" });
      x
  in
  Generated { n; topology; mean_card; variability }

let parse_params json =
  let params =
    match obj_member "params" json with
    | None -> reject (Missing "params")
    | Some (Json.Obj _ as p) -> p
    | Some _ -> reject (Wrong_type { field = "params"; expected = "an object" })
  in
  let query =
    match (obj_member "relations" params, obj_member "n" params) with
    | Some rels, _ ->
      let relations = parse_relations "params.relations" rels in
      let edges =
        match obj_member "edges" params with
        | None -> []
        | Some e -> parse_edges "params.edges" e
      in
      Inline { relations; edges }
    | None, Some n -> parse_generated params n
    | None, None -> reject (Missing "params.relations (inline) or params.n (generated)")
  in
  (* v1 once accepted [multiway: true] for n-ary plans; that planner is
     retired, so [true] is refused rather than answered binary. *)
  (match Option.map (get_bool "params.multiway") (obj_member "multiway" params) with
  | Some true ->
    reject
      (Bad_value
         {
           field = "params.multiway";
           detail = "multiway planning was retired; send false or omit it";
         })
  | Some false | None -> ());
  query

let decode_envelope json rid =
  (match json with
  | Json.Obj _ -> ()
  | _ -> reject (Wrong_type { field = "request"; expected = "a JSON object" }));
  (match obj_member "blitz" json with
  | None -> reject (Version None)
  | Some (Json.Int v) when v = version -> ()
  | Some (Json.Int v) -> reject (Version (Some v))
  | Some _ -> reject (Wrong_type { field = "blitz"; expected = "an integer" }));
  let tenant = Option.map (get_string "tenant") (obj_member "tenant" json) in
  let meth =
    match obj_member "method" json with
    | None -> reject (Missing "method")
    | Some v -> get_string "method" v
  in
  let request =
    match meth with
    | "optimize" | "explain" ->
      let call = if meth = "explain" then Explain else Optimize in
      Run { call; query = parse_params json; multiway = false }
    | "stats" -> Stats
    | "health" -> Health
    | m -> reject (Unknown_method m)
  in
  { id = rid; tenant; request }

let decode line =
  if String.length line > max_line_bytes then
    Error
      {
        rid = Json.Null;
        error =
          Parse
            (Printf.sprintf "request line exceeds %d bytes (%d)" max_line_bytes
               (String.length line));
      }
  else
    match Json.of_string line with
    | Error msg -> Error { rid = Json.Null; error = Parse msg }
    | Ok json -> (
      let rid = Option.value (obj_member "id" json) ~default:Json.Null in
      match decode_envelope json rid with
      | env -> Ok env
      | exception Reject error -> Error { rid; error })

let ok_response ~id result =
  Json.to_string
    (Json.Obj [ ("blitz", Json.Int version); ("id", id); ("ok", Json.Bool true); ("result", result) ])

let error_response ~id ~code ~message =
  Json.to_string
    (Json.Obj
       [
         ("blitz", Json.Int version);
         ("id", id);
         ("ok", Json.Bool false);
         ("error", Json.Obj [ ("code", Json.String code); ("message", Json.String message) ]);
       ])

let rejected_response { rid; error } =
  error_response ~id:rid ~code:(error_code error) ~message:(error_message error)
