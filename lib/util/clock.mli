(** The one clock the library reads for deadlines, quotas, latencies,
    rates and trace timestamps.

    It is monotonic: an NTP step or a manual change of the wall clock
    can neither stretch nor cut a deadline, and a latency is never
    negative.  Its origin is arbitrary (process start), so only
    differences between readings mean anything. *)

val now_s : unit -> float
(** Seconds since an arbitrary origin fixed at process start;
    non-decreasing across calls from any domain. *)
