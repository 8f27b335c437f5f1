(** Structured tracing: cheap spans into a fixed-size ring buffer, with
    a Chrome-trace ([chrome://tracing] / Perfetto JSON array) exporter.

    A span brackets one unit of optimizer work — an engine call, a
    threshold pass, a degradation tier, a pool job — and records its
    wall-clock extent plus string attributes.  Events land in a
    lock-free ring buffer (an [Atomic] write cursor; old events are
    overwritten once the buffer wraps), so tracing a long-running
    serving process is bounded-memory by construction.

    {2 Cost when disabled}

    Tracing defaults to off, and a disabled {!span} is one [Atomic.get]
    branch followed by a direct call of the traced function — no clock
    read, no allocation.  This is the "compiled to near-zero overhead"
    contract the instrumented hot seams rely on.

    {2 Concurrency}

    The cursor is claimed with [Atomic.fetch_and_add], so spans from
    worker domains interleave without locking.  Slot writes are not
    atomic with the claim; a reader that races a writer on a wrapped
    buffer can observe a slot mid-update.  {!events} is meant to be
    called after the traced work quiesces (end of query, end of run) —
    the CLI and tests do exactly that. *)

type event = {
  name : string;
  ts_us : float;
      (** Start, microseconds since the origin of {!Blitz_util.Clock}
          (process start), or of the test clock. *)
  dur_us : float;
  tid : int;  (** The recording domain's id. *)
  attrs : (string * string) list;
}

(** {1 Switch and clock} *)

val enabled : unit -> bool
(** Whether spans are recorded (default: off). *)

val set_enabled : bool -> unit

val set_clock_for_testing : (unit -> float) option -> unit
(** Replace (or with [None] restore) the clock, which returns seconds
    ({!Blitz_util.Clock.now_s} by default).  Golden tests inject a
    deterministic counter so exported traces are byte-stable. *)

(** {1 Recording} *)

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording one complete event covering its
    execution.  The event is recorded even when [f] raises (the
    exception propagates).  Nested spans appear nested in the Chrome
    timeline via their timestamps. *)

val instant : ?attrs:(string * string) list -> string -> unit
(** A zero-duration mark (budget expiry, cascade decision). *)

(** {1 The ring buffer} *)

val set_capacity : int -> unit
(** Resize the buffer (clearing it).  Default 4096 events.  Raises
    [Invalid_argument] on a non-positive capacity. *)

val clear : unit -> unit
(** Drop buffered events. *)

val events : unit -> event list
(** Retained events, oldest first.  At most the ring's capacity; once
    the buffer wraps, the oldest are gone. *)

(** {1 Export} *)

val to_chrome : unit -> Blitz_util.Json.t
(** The retained events as a Chrome-trace JSON array of complete
    (["ph": "X"]) events — load the file in [chrome://tracing] or
    [ui.perfetto.dev].  Timestamps are rebased to the earliest retained
    event so they survive the JSON printer's precision. *)

val write_chrome : string -> unit
(** {!to_chrome} pretty-printed to a file. *)
