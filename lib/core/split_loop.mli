(** The per-subset kernels of Algorithm blitzsplit, shared by the
    optimizer variants and by the rank-parallel driver.

    {!Blitzsplit} (plain join graphs), {!Blitzsplit_eq}
    (equivalence-class cardinalities) and [Parallel_blitzsplit] (the
    rank-parallel decomposition in [blitz_parallel]) differ only in how
    subsets are enumerated and in how [compute_properties] fills the
    cardinality column; the split loop — the [O(3^n)] part realized with
    the successor trick and nested-[if] pruning (Sections 4.2, 6.2) —
    is identical and lives here.  Under every model with a symmetric
    [kappa''] it visits each unordered split [{lhs, s lxor lhs}] once,
    [(3^n - 2^(n+1) + 1) / 2] iterations in all, half the paper's loop
    over ordered splits.

    {!find_best_split} dispatches once per subset on
    {!Blitz_cost.Cost_model.kind} to a monomorphized loop body: the
    three paper models run with their [kappa''] arithmetic inlined (no
    closure call, no float boxing — the loop allocates nothing), reading
    the [cost], [card] and [aux] columns of {!Dp_table} directly.
    [Opaque] models with a nonzero [kappa''] fall back to a
    closure-calling body that keeps the ordered loop, since such a
    [kappa''] may be asymmetric.  The paper-model kernels produce costs
    and [best_lhs] links bit-identical to the generic kernel over
    ordered splits, which the test suite and [bench split] keep as their
    reference, with exactly half its [loop_iters]; the closure-calling
    body matches it exactly, counters included.

    All kernels use unchecked array accesses internally: callers must
    pass subset indices in [(0, 2^n)] against a table created for [n]
    relations (the enumeration loops guarantee this by construction). *)

val find_best_split :
  Dp_table.t -> Blitz_cost.Cost_model.t -> Counters.t -> threshold:float -> int -> unit
(** Fill [cost] and [best_lhs] for the (non-singleton) subset, reading
    the already-computed [card], [cost] and [aux] columns of its proper
    subsets.  With a finite [threshold], marks the entry infeasible
    (cost [infinity], best_lhs 0) when no split stays below it.  Writes
    only to this subset's own slots, so concurrent calls on distinct
    subsets of the same rank are race-free (all reads hit lower ranks). *)

val variant : Blitz_cost.Cost_model.t -> string
(** Which monomorphized loop body {!find_best_split} runs for the model:
    ["zero"], ["sum-aux"], ["dnl"] or ["general"].  Diagnostic
    (e.g. the [blitz explain] kernel summary line). *)

val compute_properties_join :
  Dp_table.t -> Blitz_cost.Cost_model.t -> Blitz_graph.Join_graph.t -> int -> unit
(** Fill [pi_fan], [card] and [aux] for a non-singleton subset via the
    fan recurrence of Section 5.4 (Equation 11).  Requires a table with
    the fan column allocated.  Reads only strictly smaller subsets. *)

val compute_properties_product : Dp_table.t -> Blitz_cost.Cost_model.t -> int -> unit
(** Fill [card] and [aux] for a non-singleton subset as a plain
    cardinality product (Figure 1); [pi_fan] is never touched and may be
    unallocated. *)

val init_singletons : Dp_table.t -> Blitz_cost.Cost_model.t -> Blitz_catalog.Catalog.t -> unit
(** Fill the singleton rows: cardinality from the catalog, cost 0, aux
    memo from the model. *)
