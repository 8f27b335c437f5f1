(** Plan-tree transformation moves for stochastic search.

    The classic rule set used by join-order simulated annealing and
    iterative improvement (Ioannidis & Kang 1991; Steinbrunn 1996):
    commutativity, both directions of associativity, and the two join
    exchanges.  Each move rewrites one internal node and preserves the
    leaf set, so every neighbor of a valid plan is a valid plan.  The
    moves generate the whole bushy plan space from any starting plan. *)

module Plan = Blitz_plan.Plan
module Relset = Blitz_bitset.Relset
module Rng = Blitz_util.Rng

type rule =
  | Commute  (** [A x B -> B x A]; always applicable at a join. *)
  | Assoc_left  (** [(A x B) x C -> A x (B x C)]. *)
  | Assoc_right  (** [A x (B x C) -> (A x B) x C]. *)
  | Exchange_left  (** [(A x B) x C -> (A x C) x B]. *)
  | Exchange_right  (** [A x (B x C) -> B x (A x C)]. *)

val apply_root : rule -> Plan.t -> Plan.t option
(** Apply a rule at the root; [None] when the shape does not match. *)

val apply_at : Plan.t -> path:int list -> rule -> Plan.t option
(** Apply at the node reached by the path (0 = left child, 1 = right);
    [None] when the path or shape does not match. *)

val internal_paths : Plan.t -> int list list
(** Paths to every [Join] node (root first). *)

val random_neighbor : Rng.t -> Plan.t -> Plan.t
(** Uniformly random internal node, uniformly random applicable rule.
    Raises [Invalid_argument] on a bare leaf. *)

(** {1 Random plan generation} *)

val random_bushy : Rng.t -> Relset.t -> Plan.t
(** Random bushy plan: each internal split assigns members to sides by
    fair coin flips (conditioned on both sides being nonempty).  Raises
    [Invalid_argument] on the empty set. *)

val random_leftdeep : Rng.t -> Relset.t -> Plan.t
(** Left-deep vine over a uniformly random leaf order. *)
