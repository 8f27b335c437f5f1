(** Summary statistics over float samples.

    The paper's benchmarking methodology (Section 6 and the appendix) is
    built around the {e geometric} mean of base-relation cardinalities and
    around repeated timing runs; this module supplies both kinds of
    aggregation. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on empty input. *)

val geometric_mean : float array -> float
(** Geometric mean of positive samples, computed in log space to avoid
    overflow.  Raises [Invalid_argument] on empty input or non-positive
    samples. *)

val min_max : float array -> float * float
(** Smallest and largest sample.  Raises [Invalid_argument] on empty
    input. *)

val spearman : float array -> float array -> float
(** Spearman rank correlation of two paired samples (average ranks for
    ties).  Used by the cost-model-validation experiment to compare model
    estimates against measured operator work.  Raises [Invalid_argument]
    on length mismatch or fewer than two points. *)
