(** The paper's benchmark join-graph topologies (Section 6.1, appendix).

    Four shapes drive the evaluation: {e chain}, {e cycle+3} (a cycle with
    three extra cross-edges), {e star}, and {e clique}.  The appendix
    prescribes both the exact wiring (for n = 15) and a selectivity
    assignment that makes every query produce a result of cardinality
    [mu], the geometric-mean base-relation cardinality:

    {v sel(i, j) = mu^(1/k) * |R_i|^(-1/k_i) * |R_j|^(-1/k_j) v}

    where [k] is the number of predicates and [k_i] the number incident
    on relation [i].  This module generalizes the wiring to any [n]
    (reducing to the paper's exact edge lists at n = 15) and implements
    the selectivity formula. *)

type t =
  | Chain  (** Path through all relations in the paper's interleaved order. *)
  | Cycle_plus of int
      (** Cycle (chain plus closing edge) augmented with the given number
          of cross-edges; [Cycle_plus 3] is the paper's "cycle+3". *)
  | Star  (** Hub [R_{n-1}] connected to every other relation. *)
  | Clique  (** A predicate between every pair. *)
  | Grid of int * int
      (** [Grid (r, c)] with [r*c = n]: 4-neighbor mesh.  Not in the
          paper; included as an additional topology for the sensitivity
          study. *)

val name : t -> string
(** Short identifier, e.g. ["cycle+3"]. *)

val of_string : string -> (t, string) result
(** Parses ["chain"], ["cycle+K"], ["star"], ["clique"], ["grid:RxC"]. *)

val all_paper : t list
(** The four topologies used in Figures 4-6: chain, cycle+3, star,
    clique. *)

val chain_order : int -> int array
(** The appendix's interleaved chain ordering.  For n = 15 this is
    exactly [R0-R8-R1-R9-...-R14-R7]; in general relations
    [0..ceil(n/2)-1] alternate with [ceil(n/2)..n-1]. *)

val check : t -> n:int -> unit
(** Raises [Invalid_argument] when the topology is infeasible at size
    [n]: fewer than two relations, [Cycle_plus k] below [n = 2k + 3],
    [Grid (r, c)] with [r*c <> n]. *)

val edge_list : t -> n:int -> (int * int) list
(** Unweighted edges of the topology at size [n], endpoints with
    [i <> j], no duplicates.  Raises {!check}'s [Invalid_argument] when
    the topology is infeasible at that size. *)

val grid : n:int -> t
(** [grid ~n] is [Grid (r, c)] with [r * c = n] and [r] the largest
    divisor of [n] at most [sqrt n] — the most-square mesh covering
    exactly [n] relations, deterministically.  Primes degenerate to
    [Grid (1, n)] (a chain). *)

val assign_selectivities :
  Blitz_catalog.Catalog.t -> (int * int) list -> result_card:float -> Join_graph.t
(** Weight an edge list with the appendix formula, targeting the given
    final result cardinality (the paper uses [result_card = mu]).  With an
    empty edge list, returns the predicate-free graph. *)

val make : t -> Blitz_catalog.Catalog.t -> Join_graph.t
(** [make topo catalog] wires the topology over the catalog's relations
    and assigns appendix selectivities with
    [result_card = geometric_mean_card catalog]. *)
