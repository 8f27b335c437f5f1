(** The serve wire protocol: versioned newline-delimited JSON.

    One request per line, one response per line, correlated by the
    client-chosen [id] (any JSON value, echoed verbatim).  Every request
    carries ["blitz": 1] — the protocol version — and a ["method"]; the
    [optimize]/[explain] methods add a ["params"] object describing the
    query either {e inline} (explicit relation cardinalities and join
    edges, the {!Blitz_guard.Guard.optimize_input} shape) or
    {e generated} (a deterministic {!Blitz_workload.Workload} spec).
    See DESIGN.md §5i for the full schemas and examples.

    Decoding is total: every malformed line maps to a typed
    {!decode_error} (never an exception), rendered through the shared
    [Blitz_util.Err] formatter under the ["serve"] scope and paired
    with a stable machine-readable {!error_code} string.  Responses are
    encoded here too, so the server and the test suite agree on the
    bytes. *)

module Json = Blitz_util.Json

val version : int
(** The protocol version this codec speaks: [1]. *)

val max_line_bytes : int
(** Longest request line the server accepts (1 MiB).  Longer lines are
    rejected with a [parse_error] before JSON decoding. *)

(** {1 Requests} *)

type query =
  | Inline of { relations : (string * float) list; edges : (int * int * float) list }
      (** Explicit statistics: [params.relations] is a list of
          [[name, cardinality]] pairs, [params.edges] a list of
          [[a, b, selectivity]] triples over relation indexes.  Values
          are passed to the sanitizer untouched — defective statistics
          are its department, not the codec's. *)
  | Generated of { n : int; topology : string; mean_card : float; variability : float }
      (** A deterministic paper-grid workload: [params.n] plus optional
          [topology] (default ["chain"]), [mean_card] (default [100]),
          [variability] (default [0]). *)

type call = Optimize | Explain

type request =
  | Run of { call : call; query : query; multiway : bool }
      (** [multiway] is always [false]: the decoder accepts an absent or
          [false] [params.multiway] and refuses [true] as a [Bad_value]
          ([invalid_request]), since every plan is binary.  The field
          stays only because the benchmark ladder still binds it. *)
  | Stats
  | Health

type envelope = {
  id : Json.t;  (** Echoed verbatim in the response; [Null] when absent. *)
  tenant : string option;  (** [None] means the ["default"] tenant. *)
  request : request;
}

(** {1 Decode errors} *)

type decode_error =
  | Parse of string  (** Not JSON (message carries the byte offset). *)
  | Version of int option  (** Missing or unsupported ["blitz"] field. *)
  | Missing of string  (** A required field is absent. *)
  | Wrong_type of { field : string; expected : string }
  | Bad_value of { field : string; detail : string }
  | Unknown_method of string

type rejected = {
  rid : Json.t;
      (** Best-effort request id recovered from the defective line, so
          even an error response correlates when possible. *)
  error : decode_error;
}

val decode : string -> (envelope, rejected) result
(** Decode one request line.  Total: never raises. *)

val error_code : decode_error -> string
(** Stable wire code: [parse_error], [unsupported_version],
    [invalid_request], or [unknown_method]. *)

val error_message : decode_error -> string
(** Human-readable rendering via [Err.format ~scope:"serve"]. *)

(** {1 Response encoding} *)

val ok_response : id:Json.t -> Json.t -> string
(** [{"blitz":1,"id":id,"ok":true,"result":...}] — one line, no
    trailing newline. *)

val error_response : id:Json.t -> code:string -> message:string -> string
(** [{"blitz":1,"id":id,"ok":false,"error":{"code":...,"message":...}}].
    Server-side codes beyond {!error_code}: [unknown_tenant],
    [quota_exhausted], [invalid_input], [overloaded], [internal]. *)

val rejected_response : rejected -> string
(** The error response for a line {!decode} rejected. *)
