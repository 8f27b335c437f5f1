(** The per-subset kernels of Algorithm blitzsplit: sweep 1's property
    computations and §6.4's skip test ({!sweep}) and the split loop
    ({!split}), which {!Blitzsplit}'s two sweeps run on one domain or
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

    The [aux] column is written only under kappa_sm and [Opaque] models,
    the ones whose kernels read it.  kappa_0 and kappa_dnl have the
    identity for [aux] and read [card], so their passes leave [aux] as
    they found it.

    All kernels use unchecked array accesses internally: callers must
    pass subset indices in [(0, 2^n)] against a table created for [n]
    relations (the enumeration loops guarantee this by construction). *)

exception Interrupted
(** Raised by {!sweep} when its probe fires; {!Blitzsplit.Interrupted}
    is the same exception. *)

val probe_mask : int
(** A pass polls its probe every [probe_mask + 1] (64) subsets of each
    sweep. *)

val sweep :
  graph:Blitz_graph.Join_graph.t option ->
  interrupt:(unit -> bool) option ->
  Dp_table.t ->
  Blitz_cost.Cost_model.t ->
  Counters.t ->
  threshold:float ->
  Live_index.t ->
  block:int ->
  unit
(** Sweep 1 of a pass over block [block] of [lists]'s blocks, the
    subsets [\[block 2^n / blocks, (block + 1) 2^n / blocks)], on a table
    whose singleton and doubleton rows are filled ({!init_singletons}):
    for every non-singleton subset of the block in increasing order, its
    properties — [pi_fan] and [card] by the fan recurrence of Section
    5.4 with [graph], [card] as a plain product (Figure 1) without, and
    [aux] under kappa_sm and [Opaque] models — then Section 6.4's skip
    test.  A subset whose [kappa'] reaches [threshold] (under kappa_sm
    at a finite threshold, whose {!completion_threshold} is [<= 0]) is
    settled: cost [infinity], best_lhs 0, counted as skipped and
    infeasible.  Every other subset is kept: its split bound,
    [threshold - kappa'] or the completion-bounded threshold, is parked
    in its [cost] slot, and it is appended to the block's segment of its
    rank's list in [lists]; {!split} must run on it before any subset
    holding it reads its cost.  One block ([lists] as {!Live_index.start}
    left it, [block] 0) is the whole lattice.  Of four
    ({!Live_index.cut_blocks}), a block reads nothing another writes,
    so the four may run at once on different domains, each with its own
    [ctr]; see {!Blitzsplit}.  Adds the subsets it visited to [subsets].
    With [interrupt], polls it every 64 subsets; when it fires, adds the
    counts so far and raises {!Interrupted}.  One loop per model and per
    join or product pass, dispatched once: under the paper models no
    float crosses a call, so the sweep allocates nothing. *)

val find_best_split :
  Dp_table.t -> Blitz_cost.Cost_model.t -> Counters.t -> threshold:float -> int -> unit
(** Fill [cost] and [best_lhs] for the (non-singleton) subset, reading
    the already-computed [card], [cost] and [aux] columns of its proper
    subsets.  With a finite [threshold], marks the entry infeasible
    (cost [infinity], best_lhs 0) when no split stays below it.  Writes
    only to this subset's own slots.  It is {!sweep}'s skip test for
    one subset then, for a kept subset, {!split} without the index. *)

val split :
  index:Live_index.t -> Dp_table.t -> Blitz_cost.Cost_model.t -> Counters.t -> int -> unit
(** The split loop of a subset {!sweep} kept, from the bound it parked:
    fills [cost] and [best_lhs], or marks the subset infeasible when no
    split comes in under the bound.

    With an [index] that is on (the driver turns it on where
    {!scan_applies} holds), a
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
    whose cost terms need not be non-negative. *)

val completion_applies : Blitz_cost.Cost_model.t -> threshold:float -> bool
(** True for kappa_sm at a finite threshold: the passes the completion
    bound holds for. *)

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

val compute_properties_join : Dp_table.t -> Blitz_cost.Cost_model.t -> int -> unit
(** {!sweep}'s properties for one non-singleton subset of a join pass:
    [pi_fan] and [card] via the fan recurrence of Section 5.4
    (Equation 11), and [aux] under kappa_sm and [Opaque] models.
    Requires a table with the fan column allocated and its doubletons'
    [pi_fan] stored by {!init_singletons} from the same graph; reads
    only the table, and only strictly smaller subsets. *)

val init_singletons :
  graph:Blitz_graph.Join_graph.t option ->
  Dp_table.t ->
  Blitz_cost.Cost_model.t ->
  Blitz_catalog.Catalog.t ->
  unit
(** Fill the singleton rows: cardinality from the catalog, cost 0, and
    the [aux] memo under kappa_sm and [Opaque] models; with [graph], also
    every doubleton's [pi_fan], its predicate's raw selectivity, the fan
    recurrence's seed. *)
