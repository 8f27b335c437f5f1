(** Join plans: binary expression trees over base relations.

    The optimizer's output.  A plan is {e bushy} in general — both
    operands of a join may themselves be joins; the {e left-deep} plans
    many optimizers restrict themselves to (and which we implement as a
    baseline) are the special case where every right operand is a leaf.

    Costing here is the {e reference} implementation: it recomputes
    intermediate cardinalities from the join graph's induced subgraphs
    (Section 5.1) rather than through the optimizer's recurrences, so it
    doubles as an independent check of the DP table. *)

module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model

type t = Leaf of int | Join of t * t

(** {1 Structure} *)

val relations : t -> Relset.t
(** Set of base relations referenced.  Raises [Invalid_argument] if a
    relation occurs twice (such a tree is not a join plan). *)

val leaf_count : t -> int
val join_count : t -> int
val depth : t -> int
(** Leaves have depth 0. *)

val is_left_deep : t -> bool
(** True when every [Join]'s right operand is a [Leaf] (a "left-deep
    vine").  A single [Leaf] is trivially left-deep. *)

val validate : n:int -> t -> (unit, string) result
(** Checks that every leaf index is within [\[0, n)] and no relation is
    referenced twice.  (Plans over a strict subset of the catalog are
    permitted: subplans are plans.) *)

val equal : t -> t -> bool
(** Structural equality. *)

val map_leaves : (int -> int) -> t -> t
(** Re-index every leaf; used to lift plans over an induced subproblem
    back to parent-catalog indexes, and by fingerprint canonization /
    rebase. *)

val normalize : t -> t
(** Canonical form under join commutativity: within every join, the
    operand containing the smallest relation index goes left.  Two plans
    are commutatively equivalent iff their normalizations are [equal]. *)

val enumerate : Relset.t -> t list
(** All bushy plans over exactly the given relation set (both operand
    orders counted once: plans are produced in {!normalize}d form).
    Exponential; intended for oracle tests at small sizes. *)

val count_plans : int -> float
(** Number of distinct unordered bushy plans over [n] relations:
    [n! * Catalan(n-1) / 2^(n-1)] — the value {!enumerate} produces. *)

(** {1 Semantics} *)

val cardinality : Catalog.t -> Join_graph.t -> t -> float
(** Estimated output cardinality of the plan's result: product of member
    cardinalities and of the selectivities of all predicates wholly
    contained in the plan's relation set. *)

val cost : Cost_model.t -> Catalog.t -> Join_graph.t -> t -> float
(** Recursive cost per Equations (1)-(2): leaves are free; each join adds
    [kappa(out, lhs, rhs)]. *)

val cartesian_join_count : Join_graph.t -> t -> int
(** Number of joins in the plan whose operands are connected by no
    predicate — the plan's Cartesian products. *)

(** {1 Join-algorithm annotation (Section 6.5)} *)

type annotated =
  | Ann_leaf of { rel : int; card : float }
  | Ann_join of {
      lhs : annotated;
      rhs : annotated;
      card : float;  (** Output cardinality of this join. *)
      algorithm : string;  (** Name of the winning cost model. *)
      join_cost : float;  (** Cost of this join alone. *)
      subtree_cost : float;  (** Cumulative cost of the subtree. *)
      cartesian : bool;  (** No predicate spans the operands. *)
    }

val annotate :
  algorithms:(string * Cost_model.t) list -> Catalog.t -> Join_graph.t -> t -> annotated
(** Single post-optimization traversal attaching to each join the
    algorithm whose model costs it least ("there is no need to keep track
    of which algorithm yields the minimum" during search).  Raises
    [Invalid_argument] on an empty algorithm list. *)

val annotated_cost : annotated -> float
(** Root subtree cost ([0] for a bare leaf). *)

(** {1 Printing and parsing} *)

val to_compact_string : ?names:string array -> t -> string
(** One-line form, e.g. [((A x D) x (B x C))]. *)

val of_compact_string : names:string array -> string -> (t, string) result
(** Parses the {!to_compact_string} form (structural round-trip). *)

val pp_annotated : ?names:string array -> unit -> Format.formatter -> annotated -> unit
(** Multi-line operator-tree rendering with cardinalities and costs. *)
