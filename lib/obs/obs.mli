(** The observability front door: one import for instrumented modules.

    [Blitz_obs.Obs] re-exports {!Metrics} and {!Trace} and adds the
    few combinators the instrumented seams actually use, so a hot-path
    module writes [Obs.span "threshold.pass" ~attrs f] and
    [Obs.Metrics.incr c] without choosing between two modules.

    Everything here inherits the two modules' cost contract: with both
    switches off (the default) each call is a single [Atomic.get]
    branch. *)

module Metrics = Metrics
module Trace = Trace

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [Trace.span]. *)

val instant : ?attrs:(string * string) list -> string -> unit
(** [Trace.instant]. *)

val enabled : unit -> bool
(** True when metrics {e or} tracing is recording. *)
