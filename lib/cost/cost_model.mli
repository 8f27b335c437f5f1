(** Join cost models, decomposed for the blitzsplit inner loop.

    Section 3.2 of the paper: the per-join cost function is split as

    {v kappa(out, lhs, rhs) = kappa'(out) + kappa''(out, lhs, rhs) v}

    where [kappa'] depends only on the join {e output} and is evaluated
    once per subset (outside the split loop, [2^n] times total), while
    [kappa''] depends on the split and is evaluated lazily inside the loop
    behind nested [if]s.  Performance is best when [kappa''] is cheap and
    small; correctness requires it to be non-negative.

    The three concrete models come from the appendix (after Steinbrunn,
    Moerkotte & Kemper):

    - naive [kappa_0]: cost of a join = output cardinality
      ([kappa' = |out|], [kappa'' = 0]);
    - sort-merge [kappa_sm]: [|L|(1 + log |L|) + |R|(1 + log |R|)]
      ([kappa' = 0]); the [c(1 + log c)] term depends only on the operand
      subset, so it is memoized in the DP table via {!field-aux};
    - disk nested loops [kappa_dnl]:
      [2|out|/K + |L||R| / (K^2 (M-1)) + min(|L|, |R|)/K] with blocking
      factor [K] and memory budget [M] in blocks (paper: K = 10, M = 100).

    A fourth combinator, {!min_of}, models the availability of multiple
    join algorithms (Section 6.5): [kappa = min(kappa_a, kappa_b)]. *)

type kind =
  | Paper_naive  (** [kappa' = out], [kappa'' = 0], [aux] the identity. *)
  | Paper_sort_merge
      (** [kappa' = 0], [kappa'' = laux + raux], [aux c = c (1 + log c)]
          ([c] when [c <= 1]). *)
  | Paper_dnl of { k : float; inner_coeff : float }
      (** [kappa' = 2 out / k],
          [kappa'' = lcard * rcard * inner_coeff + min(lcard, rcard) / k],
          [aux] the identity, with [inner_coeff = 1 / (k^2 (m - 1))]
          precomputed — the exact floats the record's closures capture,
          so a kernel inlining these expressions is bit-identical to
          calling the closures. *)
  | Opaque
      (** Anything else ({!min_of}, user models): kernels must go through
          the [aux]/[k_prime]/[k_dprime] closures. *)
(** Which known shape the model's [aux], [kappa'] and [kappa''] have.
    The DP dispatches on this once per subset to run monomorphized code
    with the arithmetic inlined (no closure call, no float boxing);
    [Opaque] falls back to the closures. *)

type t = {
  name : string;  (** e.g. ["k0"], ["ksm"], ["kdnl"]. *)
  aux : float -> float;
      (** [aux card] is a per-subset quantity memoized in the DP table and
          fed back to [kappa''] for both operands; models that need no
          memo use the identity. *)
  k_prime : float -> float;
      (** [k_prime out_card]: the split-independent component. *)
  k_dprime : out:float -> lcard:float -> rcard:float -> laux:float -> raux:float -> float;
      (** The split-dependent component; receives the output cardinality,
          both operand cardinalities, and both memoized aux values. *)
  dprime_is_zero : bool;
      (** True when [kappa''] is identically zero (the naive model): the
          optimizer may then skip its evaluation tier entirely. *)
  kind : kind;
      (** The specialization tag; must agree with the closures (the
          kernels trust it for bit-identical monomorphized arithmetic). *)
}

val naive : t
(** [kappa_0]: cost = output cardinality (Section 3.1). *)

val sort_merge : t
(** [kappa_sm] (appendix).  Operand cardinalities below 1 (possible for
    intermediate results under strong selectivities) contribute linearly,
    avoiding negative logarithms. *)

val disk_nested_loops : ?blocking_factor:float -> ?memory_blocks:float -> unit -> t
(** [kappa_dnl] with the given [K] (default 10) and [M] (default 100).
    Raises [Invalid_argument] if [K <= 0] or [M <= 1]. *)

val kdnl : t
(** {!disk_nested_loops} at the paper's parameters. *)

val min_of : t -> t -> t
(** [min_of a b] costs each join at [min(kappa_a, kappa_b)] — the
    multiple-join-algorithms model of Section 6.5.  The combination is not
    separable, so its [k_prime] is 0, everything moves into [kappa''],
    and each component is recomputed from the operand cardinalities (its
    [aux] is the identity, forgoing the memo). *)

val kappa : t -> out:float -> lcard:float -> rcard:float -> float
(** Total cost of one join under the model: [kappa' + kappa''], computing
    aux values directly (no memo).  This is the reference used by plan
    re-costing and the brute-force baseline. *)

val all_paper : t list
(** The three models of the evaluation: naive, sort-merge, disk nested
    loops. *)

val of_string : string -> (t, string) result
(** Parses ["k0"], ["ksm"], ["kdnl"], ["min:ksm,kdnl"] etc. *)
