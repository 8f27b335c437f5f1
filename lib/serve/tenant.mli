(** Tenant configuration: who may ask for how much.

    A tenant maps onto the two resource mechanisms the stack already
    has: its [deadline_ms]/[max_table_bytes] become the per-request
    [Blitz_guard.Budget], and its [rps]/[burst] become a {!Quota}
    bucket.  The tenant {e name} additionally becomes the
    [Engine]/[Guard] [cache_tag], partitioning the shared plan cache so
    one tenant's plans are never replayed to another.

    The CLI accepts a compact spec string:
    ["acme:deadline-ms=50,table-mb=8,rps=100,burst=20;beta:rps=5"] —
    tenants separated by [;], settings by [,], every setting optional.
    A tenant named [default] overrides the built-in unlimited default;
    otherwise the default tenant is appended so unauthenticated
    requests still resolve. *)

type t = {
  name : string;
  deadline_ms : float option;  (** Per-request optimizer deadline. *)
  max_table_bytes : int option;
      (** DP-table memory ceiling; [None] falls back to the server's
          default ceiling. *)
  rps : float option;  (** Quota refill rate; [None] = unlimited. *)
  burst : int option;  (** Quota bucket size. *)
}

val default_name : string
(** ["default"] — the tenant used when a request names none. *)

val default : t
(** Unlimited tenant under {!default_name}. *)

val quota : t -> Quota.t
(** A fresh bucket for this tenant's [rps]/[burst] (unlimited when both
    are [None]). *)

val parse_spec : string -> (t list, string) result
(** Parse the CLI spec string.  Duplicate tenant names, unknown
    settings, and malformed numbers are errors (rendered via
    [Err.format ~scope:"serve"]). *)
