(** Input hardening for optimizer statistics.

    A production optimizer receives its catalog and join graph from the
    outside world — parsers, statistics collectors, remote metadata
    services — any of which can deliver NaN cardinalities, selectivities
    above 1, edges to relations that do not exist, or duplicates.  The
    raising constructors in {!Blitz_catalog.Catalog} and
    {!Blitz_graph.Join_graph} stop at the first defect with an untyped
    exception; this module instead scans the whole input, classifies
    every defect, repairs what can be repaired soundly (under an explicit
    policy), and returns either clean optimizer inputs plus the list of
    repairs performed, or the full list of irreparable issues. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph

type issue =
  | Empty_catalog
  | Too_many_relations of { count : int; limit : int }
  | Empty_relation_name of { index : int }
  | Duplicate_relation_name of { name : string }
  | Bad_cardinality of { name : string; card : float }
      (** NaN, infinite, zero or negative, under a policy that does not
          default cardinalities. *)
  | Cardinality_defaulted of { name : string; card : float; substitute : float }
      (** The invalid [card] was replaced by [substitute] — the
          geometric mean of the valid cardinalities (1 when none
          exist).  A repair note, and a loud one: the substitute is
          {e fabricated}, so cost-based optimization over it is
          guesswork (see {!fabricated_stats}). *)
  | Edge_endpoint_out_of_range of { i : int; j : int; n : int }
  | Self_edge of { i : int }
  | Duplicate_edge of { i : int; j : int }
  | Bad_selectivity of { i : int; j : int; sel : float }  (** NaN, infinite, zero or negative. *)
  | Selectivity_above_one of { i : int; j : int; sel : float }
  | Size_mismatch of { catalog_n : int; graph_n : int }

val issue_message : issue -> string
type policy = {
  clamp_selectivities : bool;
      (** Pin selectivities above 1 to [1.0] (recorded as a repair)
          instead of rejecting the input. *)
  drop_bad_edges : bool;
      (** Drop unusable edges — bad endpoints, self-edges, duplicates,
          NaN/infinite/non-positive selectivities — instead of
          rejecting.  Sound: an absent edge behaves as selectivity 1, so
          dropping only loses pruning information, never validity. *)
  default_cardinalities : bool;
      (** Replace NaN/±infinity/zero/negative cardinalities with the
          geometric mean of the valid ones instead of rejecting,
          recording a {!constructor-Cardinality_defaulted} repair per
          substitution.  Unlike edge drops this is {e not} sound for
          cost-based optimization — it merely keeps the query plannable;
          callers should degrade to estimate-free planning when
          {!fabricated_stats} holds. *)
}

val strict : policy  (** Repair nothing; every defect is an error. *)

val lenient : policy  (** Repair everything repairable (the default). *)

type clean = {
  catalog : Catalog.t;
  graph : Join_graph.t;
  repairs : issue list;  (** What {!lenient} mode fixed up, in input order. *)
}

val check :
  ?policy:policy ->
  relations:(string * float) list ->
  edges:(int * int * float) list ->
  unit ->
  (clean, issue list) result
(** Validate raw statistics.  [Error issues] lists {e all} irreparable
    defects (not just the first).  Name defects in [relations] are
    always irreparable; cardinality defects are repaired exactly when
    the policy's [default_cardinalities] holds. *)

val fabricated_stats : issue list -> bool
(** Whether the repair list contains a fabricated statistic
    ({!constructor-Cardinality_defaulted}) — i.e. the cleaned catalog's
    numbers are placeholders, not estimates, and cost-based tiers run
    on them produce arbitrary plans.  The Guard cascade switches to the
    estimate-free tier when this holds. *)

val check_pair : Catalog.t -> Join_graph.t -> (clean, issue list) result
(** Validate already-constructed inputs — only cross-input invariants
    (the size match) remain to check, since the constructors enforce the
    rest. *)
