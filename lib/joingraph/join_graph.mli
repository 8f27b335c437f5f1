(** Join graphs: relations as nodes, join predicates as weighted edges.

    Section 5.1 of the paper: a query's join graph is [(R, P)] where the
    edge between relations [i] and [j] carries the selectivity of the
    (conjunction of) predicate(s) relating them.  Absent edges behave as
    selectivity [1] — "from our algorithm's point of view, all join
    graphs are actually cliques, and are distinguished only by the
    selectivities" (Section 6.3).

    The module also provides the reference (non-recurrent) computations of
    [Pi_span], [Pi_fan] and intermediate-result cardinalities used to
    validate the optimizer's O(1)-per-subset recurrences. *)

module Relset = Blitz_bitset.Relset

type t
(** Immutable join graph over relations [0 .. n-1]. *)

(** {1 Construction}

    The [_result] constructors are the non-raising front door for
    externally supplied statistics; the raising forms remain for
    internal callers and raise [Invalid_argument] with exactly
    {!error_message}. *)

type error =
  | Too_few_relations of int  (** [n < 1]. *)
  | Too_many_relations of int  (** Beyond the bitset width. *)
  | Endpoint_out_of_range of { i : int; j : int; n : int }
  | Self_edge of int
  | Duplicate_edge of int * int
  | Invalid_selectivity of { i : int; j : int; sel : float }
      (** NaN, infinite, zero or negative. *)
  | Selectivity_above_one of { i : int; j : int; sel : float }
      (** Outside [(0, 1]] under the [`Reject] policy. *)

val error_message : error -> string
val pp_error : Format.formatter -> error -> unit

val of_edges_result :
  ?above_one:[ `Reject | `Clamp ] -> n:int -> (int * int * float) list -> (t, error) result
(** [of_edges_result ~n edges] builds a graph; each [(i, j, sel)] adds an
    undirected predicate edge.  Selectivities above 1 are physically
    meaningless — a predicate cannot enlarge a result — and would
    silently corrupt the fan recurrence, so the policy is explicit:
    [`Reject] (default) reports them as errors, [`Clamp] pins them to
    [1.0] (appropriate for estimated statistics whose formulas can
    overshoot, e.g. the appendix workload formula or histogram
    estimates). *)

val of_edges : ?above_one:[ `Reject | `Clamp ] -> n:int -> (int * int * float) list -> t
(** Raising form of {!of_edges_result}: [Invalid_argument] on
    out-of-range endpoints, self-edges, duplicate edges, non-finite,
    non-positive or (under [`Reject]) above-one selectivities, or
    [n < 1]. *)

val no_predicates : n:int -> t
(** The empty graph: pure Cartesian-product optimization. *)

val n : t -> int

val selectivity : t -> int -> int -> float
(** [selectivity t i j] is the predicate selectivity between [i] and
    [j], or [1.0] when no predicate connects them.  Symmetric.  Raises
    [Invalid_argument] on out-of-range or equal indexes. *)

val selectivity_into : t -> int -> int -> float array -> int -> unit
(** [selectivity_into t i j dst k] stores [selectivity t i j] in
    [dst.(k)], without boxing it as a returned float would be. *)

val has_edge : t -> int -> int -> bool
val degree : t -> int -> int
val neighbors : t -> int -> Relset.t
(** Set of relations sharing a predicate with [i]. *)

val edges : t -> (int * int * float) list
(** All edges with [i < j], lexicographic order. *)

val edge_count : t -> int

(** {1 Connectivity} *)

val is_connected_subset : t -> Relset.t -> bool
(** Whether the subgraph induced by the given set is connected (empty and
    singleton sets count as connected).  Used by baselines that exclude
    Cartesian products. *)

val is_connected : t -> bool

val crosses : t -> Relset.t -> Relset.t -> bool
(** [crosses t u v] holds when at least one predicate spans [u] and
    [v] — i.e. joining them is {e not} a Cartesian product. *)

(** {1 Reference selectivity aggregates (Section 5)} *)

val pi_span : t -> Relset.t -> Relset.t -> float
(** Product of the selectivities of all predicates with one endpoint in
    each argument set (Equation 8), multiplied in ascending order of the
    endpoint in [u], then of the endpoint in [v].  Allocates only the
    returned float.  Raises [Invalid_argument] when the sets intersect. *)

val pi_fan : t -> Relset.t -> float
(** The fan of [s]: [pi_span {min s} (s - {min s})] (Equation 9).
    Raises [Invalid_argument] on the empty set. *)

val pi_induced : t -> Relset.t -> float
(** Product of the selectivities of all predicates wholly contained in
    [s] — the predicates applied by any complete join over [s]
    (Section 5.1). *)

val join_cardinality : Blitz_catalog.Catalog.t -> t -> Relset.t -> float
(** Reference intermediate-result cardinality: product of member
    cardinalities times {!pi_induced}.  The optimizer computes the same
    quantity through the fan recurrence; tests check they agree. *)
