(* The one clock every ladder timing reads: CLOCK_MONOTONIC through
   bechamel's stub, so an NTP step can neither stretch nor shrink a
   measurement.  Seconds since this module was initialized. *)

let origin = Monotonic_clock.now ()
let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9
