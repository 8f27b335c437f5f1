(** Per-tenant request quotas: a token bucket.

    A bucket holds up to [burst] tokens and refills at [rps] tokens per
    second; each admitted request spends one.  [rps = 0] means no
    refill — the bucket is a hard budget of [burst] requests, which is
    what the deterministic tests use.  The clock is injectable
    ([?now]), so refill behavior is testable without sleeping; the
    server passes wall-clock time.

    Buckets are {e not} thread-safe: the server touches each tenant's
    bucket from the event-loop domain only, before work is handed to a
    worker.  Quota is admission control; the per-request resource
    budget (deadline, table bytes) is [Blitz_guard.Budget]'s job and is
    armed after admission. *)

type t

val unlimited : unit -> t
(** Every acquire succeeds. *)

val create : ?burst:int -> ?rps:float -> unit -> t
(** Both omitted: {!unlimited}.  [burst] defaults to [max 1 (ceil rps)];
    the bucket starts full.  Raises [Invalid_argument] on [burst < 1]
    or negative/non-finite [rps]. *)

val is_limited : t -> bool

val try_acquire : ?now:float -> t -> bool
(** Spend one token if available.  [now] is seconds (any monotone
    origin — only differences matter); defaults to the monotonic
    [Blitz_util.Clock.now_s ()].  Time moving backwards refills
    nothing. *)

val remaining : ?now:float -> t -> float
(** Tokens available after refill at [now]; [infinity] when
    unlimited. *)
