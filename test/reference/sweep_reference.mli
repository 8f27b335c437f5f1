(** Sweep 1 of a blitzsplit pass in its per-subset form: the property
    computation of each subset, then §6.4's skip test through its own
    call, as the library ran them before {!Blitz_core.Split_loop.sweep}
    fused them into one loop per cost model.  Kept outside the library
    as the oracle that kernel must match: [card], [pi_fan], [cost] and
    [best_lhs] bit for bit, [aux] wherever a model reads it, the kept
    subsets in order, and the counters.  This form writes [aux] under
    every model. *)

val init_singletons :
  Blitz_core.Dp_table.t -> Blitz_cost.Cost_model.t -> Blitz_catalog.Catalog.t -> unit
(** The singleton rows: cardinality, cost 0, best_lhs 0, fan 1 (when
    the column is allocated) and the aux memo. *)

val sweep :
  graph:Blitz_graph.Join_graph.t option ->
  interrupt:(unit -> bool) option ->
  Blitz_core.Dp_table.t ->
  Blitz_cost.Cost_model.t ->
  Blitz_core.Counters.t ->
  threshold:float ->
  int list
(** Every non-singleton subset in increasing order: its properties (the
    fan recurrence with [graph], the plain product without), then the
    skip test at [threshold] (completion-bounded under kappa_sm at a
    finite threshold), counted into the counters as it goes.  Returns
    the kept subsets in increasing order.  Polls [interrupt] where the
    kernel does, every 64 subsets, and raises
    {!Blitz_core.Blitzsplit.Interrupted} when it fires. *)
