(** Microkernel rate instruments: ns per inner-loop unit.

    One histogram per hot enumeration loop, named and allocated here so
    the blitzsplit pass, at any width, and the dpccp pair loop all feed
    the same instruments — a regression in either inner loop shows up
    in [blitz explain]'s metric deltas and
    in the Prometheus exposition under a stable name.

    All observation paths are gated on {!Metrics.enabled}: a disabled
    process pays one branch per optimizer call, no clock reads. *)

val split_loop_ns_per_subset : Metrics.histogram
(** Wall-clock ns per subset of a blitzsplit pass's sweep 1, the
    property computations and §6.4's skip test, timed over that sweep
    alone ([blitz_split_loop_ns_per_subset]). *)

val split_loop_ns_per_iter : Metrics.histogram
(** Wall-clock ns per split-loop iteration (the [O(3^n)] unit) of a
    blitzsplit pass's sweep 2, the split loops of the subsets sweep 1
    kept, timed over that sweep alone ([blitz_split_loop_ns_per_iter]).
    One observation per pass that ran a split; the per-iteration rate is
    what `bench split` gates, so production runs and the benchmark read
    the same unit. *)

val dpccp_ns_per_pair : Metrics.histogram
(** Wall-clock ns per csg-cmp pair folded by the dpccp driver
    ([blitz_dpccp_ns_per_pair]). *)

val timed_rate : Metrics.histogram -> events:(unit -> int) -> (unit -> 'a) -> 'a
(** [timed_rate hist ~events f] runs [f], then observes elapsed wall
    time divided by the growth of [events ()] across the call.  When
    metrics are disabled this is exactly [f ()] — no clock reads.  An
    exception escaping [f] skips the observation (a partial rate would
    be noise). *)
