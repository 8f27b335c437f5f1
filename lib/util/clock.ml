(* CLOCK_MONOTONIC through bechamel's stub.  Seconds since this module
   was initialized, so the float keeps nanosecond resolution. *)

let origin = Monotonic_clock.now ()
let now_s () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9
