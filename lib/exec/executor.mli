(** Plan execution over generated data.

    Runs a join plan bottom-up against a {!Datagen.t} dataset, applying
    at each join exactly the predicates that span its operands — the
    semantics Section 5.1 derives ("no more ... and no fewer") — and
    recording every intermediate result's actual cardinality.  Joins
    spanned by no predicate execute as Cartesian products.

    This closes the loop the paper leaves to its host system: with
    {!estimate_vs_actual} one can check that the optimizer's fan-recurrence
    estimates track what actually comes out of the operators. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Plan = Blitz_plan.Plan
module Relset = Blitz_bitset.Relset

type algorithm = Nested_loop | Hash | Sort_merge

type trace_entry = {
  set : Relset.t;  (** Relations joined so far at this node. *)
  actual_rows : int;  (** Cardinality the operator actually produced. *)
  cartesian : bool;
}

type result = {
  rows : int;  (** Final result cardinality. *)
  trace : trace_entry list;  (** One entry per join, bottom-up order. *)
}

val run : ?algorithm:algorithm -> Datagen.t -> Plan.t -> result
(** Execute the plan ([algorithm] defaults to {!Hash}).  Raises
    [Invalid_argument] if the plan references relations outside the
    dataset, and [Failure] if an intermediate result would exceed
    2,000,000 rows — a guard against accidentally materializing a huge
    Cartesian product.  Keyed nested-loop joins additionally fail when
    their probe count [|L| * |R|] would exceed 100x that bound (the
    output may be small but the work is not). *)

val run_with_work :
  ?algorithm:algorithm -> ?max_intermediate_rows:int -> Datagen.t -> Plan.t -> result * Operators.work
(** Like {!run}, additionally accounting the operators' measured work
    (tuple visits, comparisons, output rows) across the whole plan —
    the observable the paper's cost models estimate.
    [max_intermediate_rows] (default 2,000,000) replaces {!run}'s row
    guard. *)

type comparison = {
  at : Relset.t;
  estimated : float;  (** Fan-recurrence estimate on the {e realized} statistics. *)
  actual : float;
}

val estimate_vs_actual : Datagen.t -> Plan.t -> comparison list
(** Per intermediate result: the optimizer's estimate (computed from
    {!Datagen.realized_catalog} / {!Datagen.realized_graph}) against the
    cardinality a {!run} of the plan produced. *)
