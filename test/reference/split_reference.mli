(** The pre-refactor split kernel: one generic loop body that calls the
    cost model's [k_prime] and [k_dprime] closures.  Kept outside the
    library as the ground truth that the monomorphized kernels of
    [Blitz_core.Split_loop] must match bit for bit (costs, [best_lhs]
    links and counters), and as the baseline of the [bench split]
    speedup gate. *)

val find_best_split :
  Blitz_core.Dp_table.t ->
  Blitz_cost.Cost_model.t ->
  Blitz_core.Counters.t ->
  threshold:float ->
  int ->
  unit
(** Same contract as [Blitz_core.Split_loop.find_best_split]. *)
