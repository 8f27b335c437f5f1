(** Rename-invariant canonical fingerprints of optimization problems.

    A plan cache is only useful if structurally identical queries land
    on the same key even when the client numbers (or names) its
    relations differently run to run — ORMs and query rewriters permute
    join lists freely.  This module canonicalizes a problem — catalog
    cardinalities, join-graph selectivities and the cost-model
    configuration — into a labeling that is invariant under relation
    renaming/permutation, so the cache can store plans once in
    {e canonical index space} and rebase them to whatever numbering the
    next caller uses.

    Canonical labeling: relations are sorted by (cardinality, degree,
    index).  When two relations tie on (cardinality, degree), the sort
    is redone with a key sharpened by [n] Weisfeiler–Leman-style rounds
    that fold each relation's (selectivity, neighbor-key) multiset back
    into its own key, placed before the index.  Without such a tie the
    rounds could not reorder anything, and the hash never reads a key,
    so they are skipped.  Ties that survive refinement are broken by
    original index; such residual ties arise only in symmetric problems
    where either the tied relations are interchangeable (the canonical
    form is unchanged — uniform stars, cliques, products) or a renamed
    resubmission conservatively misses.  Equality of canonical forms
    always certifies isomorphism, so a hit can never pair a query with
    another query's plan.

    All computation runs inside a caller-owned {!scratch} (one per
    engine session), so a warm {!compute} allocates nothing; {!freeze}
    copies the canonical form out only when the cache actually stores an
    entry. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

type scratch
(** Preallocated workspace: key, adjacency, permutation and edge buffers
    grown to the session's high-water-mark [n] and reused across
    queries. *)

val create_scratch : unit -> scratch
(** A fresh empty workspace; one per session is the intended
    cardinality. *)

val model_digest : Cost_model.t -> int
(** A digest of the cost model's {e behavior}, not just its name: the
    name plus [kappa] probed at fixed sample points, so two
    [disk_nested_loops] instances with different blocking factors — both
    named ["kdnl"] — fingerprint differently.  Compute once per session
    (the model is fixed there), not per query. *)

val compute : scratch -> model_digest:int -> Catalog.t -> Join_graph.t option -> unit
(** Canonicalize the problem into the scratch, replacing whatever the
    scratch held.  A [None] graph is fingerprinted exactly like a
    predicate-free graph (the two produce bit-identical plans).  Raises
    [Invalid_argument] if the graph size differs from the catalog's.

    Cost, for [n] relations and [m] predicates, when no two relations
    tie on (cardinality, degree): an insertion sort of the relations, a
    test of the neighbour-mask bit of each of the [n(n-1)/2] canonical
    pairs (no [Join_graph] call), and O(n + m) reads and hashing.  With
    a tie, also [n] refinement rounds of O(n + m) integer work each,
    over adjacency lists laid out in the scratch (each edge's
    selectivity read and digested once), and a second sort.  Once the
    scratch has grown to [n], a call allocates nothing. *)

(** {1 Reading the scratch (valid until the next {!compute})} *)

val hash : scratch -> int
(** Hash of the canonical form (cards, edges, model digest).  Collisions
    are resolved by {!matches}' full structural equality, never by
    trusting the hash. *)

type frozen
(** A heap copy of a scratch's canonical form, safe to store. *)

val freeze : scratch -> frozen
(** Copy the scratch's canonical form to the heap (the scratch remains
    reusable). *)

val frozen_bytes : frozen -> int
(** Heap footprint estimate of the frozen form, for cache accounting. *)

val matches : scratch -> frozen -> bool
(** Exact structural equality of canonical forms (cards bit-for-bit,
    edge lists and selectivities bit-for-bit, model digests).  [true]
    certifies the scratch's problem and the frozen one are isomorphic
    via their canonical labelings. *)

val same_labeling : scratch -> frozen -> bool
(** Whether the scratch's caller-to-canonical permutation equals the one
    the frozen form was stored under — i.e. the hit needed no
    renumbering.  Only meaningful when {!matches} holds. *)

val canonize_plan : scratch -> Plan.t -> Plan.t
(** Re-index a plan from the caller's relation numbering into canonical
    space (for storing). *)

val rebase_plan : scratch -> Plan.t -> Plan.t
(** Re-index a canonical-space plan into the caller's numbering (for
    serving a hit).  [rebase_plan s (canonize_plan s p) = p]. *)
