(** A process-wide metrics registry: named counters, gauges and
    histograms with Prometheus text exposition and a JSON dump.

    The paper is an instrumentation story — its tables and figures are
    counts of splits, κ″ evaluations and threshold rescues — and the
    optimizer computes all of those numbers today only to throw them
    away.  This registry is where the hot seams (engine sessions, the
    registry dispatch, the budget/degradation machinery, the domain
    pool, the threshold driver) publish what they did, so a serving
    process can answer "what is the optimizer doing?" without a
    debugger.

    {2 Concurrency}

    All instrument updates are domain-safe: counters use
    [Atomic.fetch_and_add], gauges [Atomic.set]/[Atomic.exchange], and
    histogram cells per-bucket atomics with a CAS loop for the running
    sum.  Concurrent increments from any number of domains sum exactly
    (tested property).  Instrument {e creation} takes a mutex, so
    create instruments once at module initialization, not per event.

    {2 Cost when disabled}

    Recording is gated on one process-wide [Atomic.t] flag, default
    off: a disabled [incr]/[observe]/[set] is a single [Atomic.get]
    branch, so instrumented hot paths stay at their uninstrumented
    speed (the bench gate in [bench/exp_obs.ml] enforces < 2% overhead
    even {e enabled}).  Instruments can be created while disabled. *)

type counter
type gauge
type histogram

(** {1 Global recording switch} *)

val enabled : unit -> bool
(** Whether recording is on (default: off). *)

val set_enabled : bool -> unit

(** {1 Instrument creation}

    Creation is idempotent: the same [(name, labels)] pair returns the
    same instrument, so independent modules may "create" a shared
    metric.  Re-using a [(name, labels)] pair with a different
    instrument kind, or different histogram buckets, raises
    [Invalid_argument].  Names should follow Prometheus conventions
    ([blitz_engine_optimize_seconds], counters suffixed [_total]). *)

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  ?help:string -> ?buckets:float array -> ?labels:(string * string) list -> string -> histogram
(** [buckets] are the upper bounds of the cumulative buckets (a
    [+Inf] bucket is always appended); they must be strictly
    increasing.  Default: {!default_buckets}. *)

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
(** [add c k] with negative [k] raises [Invalid_argument] (counters are
    monotonic). *)

val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f] and observes its wall-clock duration in
    seconds.  When recording is disabled the clock is never read. *)

(** {1 Reading} *)

val value : counter -> int
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** {1 Exposition} *)

type snapshot =
  | Counter of { name : string; help : string; labels : (string * string) list; value : int }
  | Gauge of { name : string; help : string; labels : (string * string) list; value : float }
  | Histogram of {
      name : string;
      help : string;
      labels : (string * string) list;
      buckets : (float * int) list;  (** (upper bound, cumulative count), ending at [+Inf]. *)
      sum : float;
      count : int;
    }

val snapshot : unit -> snapshot list
(** A consistent-enough point-in-time read of every instrument, sorted
    by [(name, labels)] so output diffs stably. *)

val to_prometheus : unit -> string
(** The Prometheus text exposition format, version 0.0.4: [# HELP] /
    [# TYPE] headers per family, [_bucket{le="..."}] / [_sum] /
    [_count] rows for histograms. *)

val to_json : unit -> Blitz_util.Json.t
(** The same snapshot as a JSON document (for [--metrics=FILE] dumps
    and the bench collector). *)

(** {1 Lifecycle} *)

val reset : unit -> unit
(** Zero every instrument (counts, sums, gauge values); registration
    survives.  For tests and for per-run deltas in the CLI. *)

val clear : unit -> unit
(** Drop every instrument registration entirely.  Tests only: modules
    cache instruments in closures, and a cached instrument is orphaned
    — no longer visible to {!snapshot} — after [clear]. *)
