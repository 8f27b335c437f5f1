(** Deterministic fault injection for robustness testing.

    Wraps raw optimizer statistics — the [(name, cardinality)] list and
    [(i, j, selectivity)] edge list a catalog/graph/statistics collector
    would deliver — and corrupts them with a SplitMix64-seeded stream of
    faults: NaN and negative cardinalities, selectivities above 1,
    dropped, duplicated and out-of-range edges, cleared and duplicated
    names.  Equal seeds produce equal corruptions, so a failing seed is
    a reproducible bug report.  The property suite drives
    [Guard.optimize_input] over corrupted inputs and asserts the driver
    never raises and never emits an invalid plan. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph

type input = { relations : (string * float) list; edges : (int * int * float) list }
(** Raw statistics, before any validation. *)

val input_of : Catalog.t -> Join_graph.t -> input
(** Demote validated inputs back to raw form (the usual starting point
    for a chaos run). *)

type fault =
  | Card_nan of int
  | Card_infinite of int
  | Card_negative of int
  | Card_zero of int
  | Sel_nan of int * int
  | Sel_zero of int * int
  | Sel_above_one of int * int
  | Edge_dropped of int * int
  | Edge_duplicated of int * int
  | Edge_endpoint_wild of int * int
  | Name_cleared of int
  | Name_duplicated of int
  | Catalog_scrambled
      (** Every cardinality replaced with NaN/±infinity/negative garbage
          — the corruption {!Sanitize} can only paper over by
          fabricating substitutes, so it forces the Guard cascade onto
          the estimate-free tier. *)

val fault_message : fault -> string
val corrupt : seed:int -> ?faults:int -> input -> input * fault list
(** [corrupt ~seed input] applies a deterministic sequence of faults
    ([faults] defaults to 1-3, drawn from the seed) and reports what was
    done.  Faults compound: a later fault sees the earlier ones'
    output.  Raises [Invalid_argument] on an input with no relations
    (nothing to corrupt). *)

val scramble_catalog : seed:int -> input -> input * fault list
(** Apply exactly the {!constructor-Catalog_scrambled} fault: every
    cardinality becomes seeded garbage, names and edges untouched.  The
    deterministic way to demonstrate the degrade-to-estimate-free path
    (the CLI's [--scramble-catalog] uses it).  Raises
    [Invalid_argument] on an input with no relations. *)
