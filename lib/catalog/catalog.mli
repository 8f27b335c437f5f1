(** Base-relation statistics: the optimizer's input.

    Section 3.1 of the paper: to optimize we need "a cost model and some
    information about A, B, C, and D (e.g., their cardinalities)".  With
    the paper's cost models that information is exactly the cardinality of
    each base relation, held here alongside stable names.

    Relations are identified by dense integer indexes [0 .. n-1]; the
    index is the bit position used by {!Blitz_bitset.Relset}. *)

type t
(** Immutable catalog of [n] relations. *)

(** {1 Construction}

    The [_result] constructors are the primary, non-raising entry
    points: malformed statistics (the kind a production system receives
    from the outside world) come back as a typed {!error}.  The raising
    forms remain for internal callers whose inputs are invariants, and
    raise [Invalid_argument] with exactly {!error_message}. *)

type error =
  | Empty_catalog
  | Too_many_relations of int  (** More relations than the bitset width allows. *)
  | Empty_relation_name of int  (** Index of the offending entry. *)
  | Duplicate_relation_name of string
  | Bad_cardinality of { name : string; card : float }
      (** NaN, infinite, zero or negative cardinality. *)

val error_message : error -> string
(** Human-readable rendering, ["Catalog.of_list: <detail>"]. *)

val of_list_result : (string * float) list -> (t, error) result
(** [of_list_result [(name, card); ...]] builds a catalog; indexes follow
    list order.  Reports the first problem found as a typed error. *)

val of_list : (string * float) list -> t
(** [of_list [(name, card); ...]] builds a catalog; indexes follow list
    order.  Raises [Invalid_argument] on duplicate names, empty input,
    non-finite or non-positive cardinalities, or more relations than the
    bitset width allows. *)

val of_cards : float array -> t
(** [of_cards cards] names relations ["R0"], ["R1"], ... like the
    paper's appendix. *)

val uniform : n:int -> card:float -> t
(** [uniform ~n ~card] is [n] relations of equal cardinality — the
    zero-variability point of the paper's benchmark axis. *)

val n : t -> int
(** Number of relations. *)

val card : t -> int -> float
(** [card t i] is the cardinality of relation [i].  Raises
    [Invalid_argument] on out-of-range indexes. *)

val card_into : t -> int -> float array -> int -> unit
(** [card_into t i dst k] stores [card t i] in [dst.(k)].  A float
    returned by a call that is not inlined is boxed; storing it instead
    keeps the DP's initialization free of allocation. *)

val cards : t -> float array
(** Fresh copy of all cardinalities, index order. *)

val name : t -> int -> string
val names : t -> string array
(** Fresh copy of all names, index order. *)

val index_of_name : t -> string -> int option
(** Reverse lookup. *)

val geometric_mean_card : t -> float
(** The paper's "mean cardinality" axis (appendix): the geometric mean
    [(prod |R_i|)^(1/n)]. *)

val variability : t -> float
(** Recovers the appendix's variability parameter from the data:
    [1 - log |R_0'| / log mu] where [R_0'] is the smallest relation and
    [mu] the geometric mean; [0] when all cardinalities are equal, and by
    convention [0] when [mu <= 1]. *)
