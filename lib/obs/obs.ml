module Metrics = Metrics
module Trace = Trace

let span = Trace.span
let instant = Trace.instant
let enabled () = Metrics.enabled () || Trace.enabled ()
