(** Execution-count instrumentation for the blitzsplit inner loop.

    Section 3.3 derives the expected counts that dominate running time —
    [3^n] split-loop iterations, between [(ln 2 / 2) n 2^n] and [3^n]
    evaluations of [kappa''] depending on cost spacing (Section 6.2), and
    [2^n] per-subset straight-line executions.  The paper's loop visits
    every {e ordered} split; under a symmetric [kappa''] (every model but
    an [Opaque] one with a nonzero [kappa''], which keeps the ordered
    loop) [Split_loop.find_best_split] visits each unordered split once,
    so its [loop_iters] is half the paper's count.
    These counters let the benchmarks verify the predictions empirically
    (experiments "counts" and "ablation", which run the ordered reference
    kernel for the paper's columns). *)

type t = {
  mutable subsets : int;
      (** Calls to find_best_split: non-singleton subsets processed. *)
  mutable loop_iters : int;
      (** Split-loop iterations in aggregate: under a symmetric
          [kappa''], one per unordered split [{lhs, s lxor lhs}] visited,
          half the paper's ordered [3^n] term (see {!exact_loop_iters}).
          In a seeded pass a subset that scans the live-operand index
          ([Live_index]) instead of walking visits only the splits whose
          left operand finished live, and counts one per such split; a
          subset that walks counts its walk, dead operands included. *)
  mutable operand_sums : int;
      (** Iterations passing the nested-[if] operand-cost checks (both
          operand costs below best-so-far; at most best-so-far in a
          scan, which meets operands out of numeric order). *)
  mutable dprime_evals : int;
      (** Evaluations of [kappa''] (always 0 for the naive model, whose
          [kappa''] is identically zero). *)
  mutable improvements : int;
      (** Times a split improved on the best so far (the harmonic-series
          [(ln 2 / 2) n 2^n] term). *)
  mutable threshold_skips : int;
      (** Subsets whose split loop was skipped because [kappa'] already
          met the plan-cost threshold (Section 6.4). *)
  mutable infeasible : int;
      (** Subsets for which no split beat the threshold. *)
  mutable passes : int;
      (** Optimization passes (> 1 only under threshold re-optimization). *)
  mutable ccp_pairs : int;
      (** Csg-cmp pairs folded by the dpccp driver (0 for blitzsplit,
          whose split loop is counted in [loop_iters]).  The headline
          comparison is [ccp_pairs] vs {!exact_loop_iters}: what
          connectivity pruning saves on sparse graphs. *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val merge_into : from:t -> into:t -> unit
(** Add every field of [from] into [into].  All fields are plain sums of
    per-subset events, so merging per-domain counters at a barrier gives
    exactly the sequential counts regardless of how subsets were
    scheduled (a pass on a domain pool relies on this). *)

(** {1 Analytic predictions (Section 3.3)} *)

val exact_loop_iters : int -> int
(** Exact aggregate split-loop count of [find_best_split] without
    thresholds under a symmetric [kappa'']: [(3^n - 2^(n+1) + 1) / 2],
    one iteration per unordered split of every subset.  Section 3.3's
    ordered loop, which an [Opaque] model with a nonzero [kappa''] still
    runs, makes twice that; the same number is DPsize's [joins_built]
    and DPccp's csg-cmp pair count on a clique. *)

val predicted_dprime_lower : int -> float
(** [(ln 2 / 2) n 2^n], Section 6.2's expected [kappa''] count for the
    paper's ordered loop when cost spacing lets the nested-[if]s reject
    most splits early. *)

val predicted_dprime_upper : int -> float
(** [3^n], Section 6.2's worst case for the paper's ordered loop, when
    all splits cost alike. *)

val pp : Format.formatter -> t -> unit
