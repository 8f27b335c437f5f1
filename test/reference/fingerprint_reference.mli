(** The plan cache's canonical labeling as the library computed it
    before {!Blitz_cache.Fingerprint.compute} laid the graph out in its
    scratch: [n] refinement rounds over all [n²] pairs through
    [Join_graph.has_edge] and [Join_graph.selectivity], run on every
    call, then a sort by (cardinality, degree, refined key, index) and
    the canonical edge list from [n²/2] [has_edge] calls.  Kept outside
    the library as the oracle that [compute] must match: the same hash,
    the same canonical permutation and the same canonical form. *)

type t
(** One problem's canonical labeling and form. *)

val compute :
  model_digest:int -> Blitz_catalog.Catalog.t -> Blitz_graph.Join_graph.t option -> t
(** Canonicalize the problem.  Raises [Invalid_argument] if the graph
    size differs from the catalog's. *)

val hash : t -> int
(** Hash of the canonical form (cards, edges, model digest). *)

val canonize_plan : t -> Blitz_plan.Plan.t -> Blitz_plan.Plan.t
(** Re-index a plan from the caller's relation numbering into canonical
    space. *)

val same_form : t -> t -> bool
(** Whether the two canonical forms are equal: size, model digest,
    cards bit for bit, and edge lists with selectivities bit for bit —
    what a cache hit between the two problems requires. *)
