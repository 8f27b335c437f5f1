(** The per-subset kernels of Algorithm blitzsplit: the property
    computations, §6.4's skip test ({!seed}) and the split loop
    ({!split}), which {!Blitzsplit}'s two sweeps call on one domain or
    many.  The split loop — the [O(3^n)] part realized with the
    successor trick and nested-[if] pruning (Sections 4.2, 6.2) — writes
    only its own subset's slots and reads only proper subsets, so the
    subsets of one rank may run concurrently.  Under every model with a symmetric
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

    In a seeded pass (a finite threshold, §6.4) the three paper-model
    bodies can also scan a {!Live_index} of the subsets that finished
    live instead of walking every left operand, with the walk's cost
    bits and [best_lhs]; see {!split}.

    All kernels use unchecked array accesses internally: callers must
    pass subset indices in [(0, 2^n)] against a table created for [n]
    relations (the enumeration loops guarantee this by construction). *)

val find_best_split :
  Dp_table.t -> Blitz_cost.Cost_model.t -> Counters.t -> threshold:float -> int -> unit
(** Fill [cost] and [best_lhs] for the (non-singleton) subset, reading
    the already-computed [card], [cost] and [aux] columns of its proper
    subsets.  With a finite [threshold], marks the entry infeasible
    (cost [infinity], best_lhs 0) when no split stays below it.  Writes
    only to this subset's own slots.  It is {!seed} then, for a kept
    subset, {!split} without the index. *)

val seed :
  completion:bool ->
  Dp_table.t ->
  Blitz_cost.Cost_model.t ->
  Counters.t ->
  threshold:float ->
  int ->
  bool
(** Section 6.4's skip test for the (non-singleton) subset, whose
    [card] and [aux] are computed: the one place a pass decides it.
    Counts the subset.  When kappa' alone reaches [threshold] — under
    kappa_sm with [~completion:true], when {!completion_threshold}[ tbl
    ~threshold s] is [<= 0] — settles it (cost [infinity], best_lhs 0,
    counted as skipped and infeasible) and returns [false].  Otherwise
    parks the bound its split loop must come in under, [threshold -
    kappa'] or the completion-bounded threshold, in its [cost] slot and
    returns [true]: the subset is kept, and {!split} must run on it
    before any subset holding it reads its cost.  [~completion] is
    ignored by the other models; the driver passes
    {!completion_applies} for a pass that plans binary nodes only. *)

val split :
  index:Live_index.t -> Dp_table.t -> Blitz_cost.Cost_model.t -> Counters.t -> int -> unit
(** The split loop of a subset {!seed} kept, from the bound it parked:
    fills [cost] and [best_lhs], or marks the subset infeasible when no
    split comes in under the bound.

    With an [index] that is on (the driver turns it on where
    {!scan_applies} holds and the pass plans binary nodes only), a
    subset under the zero, sum-aux or dnl body whose candidates in the
    index are fewer than its walk's [2^(k-1) - 1] splits ([k] its rank;
    see {!Live_index}) scans the index instead of walking: it prices
    only the live left operands, ranks [1 .. k-1] in order and ascending
    within a rank, testing them with [<=] and taking a split on a
    lexicographically smaller (cost, lhs).  With non-negative cost terms
    the walk keeps the smallest left operand among the minimal splits,
    so the scan writes the walk's cost bits and [best_lhs].  Its
    [loop_iters] is the number of splits it prices, one per live left
    operand, and its operand-sum, kappa'' and improvement counts are its
    own; every width scans the same candidates in the same order.  Every
    other subset runs the walk.  No float crosses a call per subset, so
    the kernel still allocates nothing. *)

val scan_applies : Blitz_cost.Cost_model.t -> threshold:float -> bool
(** True for the three paper models at a finite threshold: the passes
    whose dead subsets the live-operand index may skip.  Off at
    [infinity], where every subset is live, and for [Opaque] models,
    whose cost terms need not be non-negative.  A driver planning n-ary
    nodes keeps it off, as it does the completion bound. *)

val completion_applies : Blitz_cost.Cost_model.t -> threshold:float -> bool
(** True for kappa_sm at a finite threshold: the passes whose plans,
    when binary, the completion bound holds for.  Multiway planning
    prices its n-ary inputs by cardinality, not by [aux], so a driver
    planning n-ary nodes must not apply it. *)

val completion_threshold : Dp_table.t -> threshold:float -> int -> float
(** The per-subset threshold of a kappa_sm pass at [threshold]: for a
    subset [S] with [1 < |S| < n], [threshold - (aux S + sum of aux r
    over the leaves r outside S)], read from the table's [aux] column;
    [threshold] itself for the full set.  Under kappa_sm every binary
    plan costs the sum of [aux] over its non-root nodes, so every
    complete plan containing [S] costs at least [cost S] plus that
    term: a subset of a plan cheaper than [threshold] stays strictly
    below its own threshold.  Once the term reaches [threshold] the sum
    stops, and the result is [<= 0]. *)

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
