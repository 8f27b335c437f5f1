(** The paper's split kernel: one generic loop body over all
    [2^|s| - 2] ordered splits that calls the cost model's [k_prime] and
    [k_dprime] closures.  Kept outside the library as the ground truth
    that the kernels of [Blitz_core.Split_loop] must match bit for bit:
    costs and [best_lhs] links everywhere; counters exactly for the
    closure-calling body, which keeps the ordered loop; [loop_iters]
    exactly twice theirs for the inlined bodies, which visit each
    unordered split once.  It is also the source of the ordered-loop
    counts that the [counts] and [ablation] experiments hold against
    Section 6.2, and the baseline of the [bench split] speedup gate. *)

val find_best_split :
  Blitz_core.Dp_table.t ->
  Blitz_cost.Cost_model.t ->
  Blitz_core.Counters.t ->
  threshold:float ->
  int ->
  unit
(** Same contract as [Blitz_core.Split_loop.find_best_split]. *)
