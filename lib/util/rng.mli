(** Deterministic pseudo-random number generation.

    All stochastic components of this repository (data generation, randomized
    baseline optimizers, property tests that need auxiliary randomness) draw
    from this splittable SplitMix64 generator so that every experiment is
    reproducible from an explicit integer seed.  We deliberately avoid
    [Stdlib.Random] for experiment code: its global state makes runs
    order-dependent. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator from [t],
    advancing [t].  Useful for giving each parallel task its own stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Raises [Invalid_argument]
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val log_uniform : t -> lo:float -> hi:float -> float
(** [log_uniform t ~lo ~hi] samples log-uniformly from [\[lo, hi)];
    both bounds must be positive.  Used for cardinalities, which the paper
    varies on a logarithmic axis. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller).  Used by the robustness
    harness for log-normal cardinality noise. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element.  Raises [Invalid_argument] on empty arrays. *)
