module Relset = Blitz_bitset.Relset

type t = {
  n : int;
  sel : float array; (* n*n, symmetric; 1.0 where no edge *)
  edge : bool array; (* n*n, symmetric *)
  neighbors : int array; (* per-relation adjacency bitmask *)
}

let n t = t.n

let check_pair t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then
    invalid_arg (Printf.sprintf "Join_graph: relation index out of range (%d, %d)" i j);
  if i = j then invalid_arg "Join_graph: self-edge query"

let idx t i j = (i * t.n) + j

type error =
  | Too_few_relations of int
  | Too_many_relations of int
  | Endpoint_out_of_range of { i : int; j : int; n : int }
  | Self_edge of int
  | Duplicate_edge of int * int
  | Invalid_selectivity of { i : int; j : int; sel : float }
  | Selectivity_above_one of { i : int; j : int; sel : float }

let error_message =
  let fmt x = Blitz_util.Err.format ~scope:"Join_graph.of_edges" x in
  function
  | Too_few_relations _ -> "Join_graph: need at least one relation"
  | Too_many_relations _ -> "Join_graph: too many relations for the bitset width"
  | Endpoint_out_of_range { i; j; _ } ->
    Printf.sprintf "Join_graph: relation index out of range (%d, %d)" i j
  | Self_edge _ -> "Join_graph: self-edge query"
  | Duplicate_edge (i, j) -> fmt "duplicate edge (%d, %d)" i j
  | Invalid_selectivity { i; j; sel } -> fmt "invalid selectivity %g on (%d, %d)" sel i j
  | Selectivity_above_one { i; j; sel } -> fmt "selectivity %g outside (0, 1] on (%d, %d)" sel i j

let no_predicates_result ~n =
  if n < 1 then Error (Too_few_relations n)
  else if n > Relset.max_width then Error (Too_many_relations n)
  else
    Ok
      {
        n;
        sel = Array.make (n * n) 1.0;
        edge = Array.make (n * n) false;
        neighbors = Array.make n 0;
      }

let no_predicates ~n =
  Blitz_util.Err.get_with ~to_message:error_message (no_predicates_result ~n)

(* Selectivities above 1 are physically meaningless (a predicate cannot
   enlarge a join's result) and, silently propagated, poison the fan
   recurrence.  The caller must pick a policy: [`Reject] (the default)
   reports them, [`Clamp] pins them to 1.0 — appropriate for estimated
   statistics whose formulas can overshoot. *)
let of_edges_result ?(above_one = `Reject) ~n edges =
  match no_predicates_result ~n with
  | Error _ as e -> e
  | Ok t ->
    let rec add = function
      | [] -> Ok t
      | (i, j, s) :: rest ->
        if i < 0 || i >= n || j < 0 || j >= n then Error (Endpoint_out_of_range { i; j; n })
        else if i = j then Error (Self_edge i)
        else if t.edge.(idx t i j) then Error (Duplicate_edge (i, j))
        else if not (Float.is_finite s) || s <= 0.0 then
          Error (Invalid_selectivity { i; j; sel = s })
        else if s > 1.0 && above_one = `Reject then
          Error (Selectivity_above_one { i; j; sel = s })
        else begin
          let s = Float.min s 1.0 in
          t.sel.(idx t i j) <- s;
          t.sel.(idx t j i) <- s;
          t.edge.(idx t i j) <- true;
          t.edge.(idx t j i) <- true;
          t.neighbors.(i) <- Relset.add t.neighbors.(i) j;
          t.neighbors.(j) <- Relset.add t.neighbors.(j) i;
          add rest
        end
    in
    add edges

let of_edges ?above_one ~n edges =
  Blitz_util.Err.get_with ~to_message:error_message (of_edges_result ?above_one ~n edges)

let selectivity t i j =
  check_pair t i j;
  t.sel.(idx t i j)

let selectivity_into t i j dst k =
  check_pair t i j;
  dst.(k) <- t.sel.(idx t i j)

let has_edge t i j =
  check_pair t i j;
  t.edge.(idx t i j)

let neighbors t i =
  if i < 0 || i >= t.n then invalid_arg "Join_graph.neighbors: index out of range";
  t.neighbors.(i)

let degree t i = Relset.cardinal (neighbors t i)

let edges t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    for j = t.n - 1 downto i + 1 do
      if t.edge.(idx t i j) then acc := (i, j, t.sel.(idx t i j)) :: !acc
    done
  done;
  !acc

let edge_count t = List.length (edges t)

let is_connected_subset t s =
  if Relset.is_empty s || Relset.is_singleton s then true
  else begin
    (* BFS over the induced subgraph using adjacency bitmasks. *)
    let seed = Relset.lowest_bit s in
    let reached = ref seed and frontier = ref seed in
    while not (Relset.is_empty !frontier) do
      let next = ref Relset.empty in
      Relset.iter
        (fun i -> next := Relset.union !next (Relset.inter t.neighbors.(i) s))
        !frontier;
      frontier := Relset.diff !next !reached;
      reached := Relset.union !reached !frontier
    done;
    Relset.equal !reached s
  end

let is_connected t = is_connected_subset t (Relset.full t.n)

let crosses t u v =
  Relset.exists (fun i -> not (Relset.disjoint t.neighbors.(i) v)) u

(* Two loops over the bitsets with the product in a local float ref, so
   the only allocation is the returned float's box: folding through
   [Relset.fold] closures boxes the accumulator at every step.  Pairs
   are visited as the fold visits them, i ascending in [u] and then j
   ascending in [v], so the product is rounded in the same order. *)
let pi_span t u v =
  if not (Relset.disjoint u v) then invalid_arg "Join_graph.pi_span: sets intersect";
  let acc = ref 1.0 and us = ref u in
  while !us <> 0 do
    let row = Relset.min_elt !us * t.n in
    let vs = ref v in
    while !vs <> 0 do
      let k = row + Relset.min_elt !vs in
      if t.edge.(k) then acc := !acc *. t.sel.(k);
      vs := !vs land (!vs - 1)
    done;
    us := !us land (!us - 1)
  done;
  !acc

let pi_fan t s =
  if Relset.is_empty s then invalid_arg "Join_graph.pi_fan: empty set";
  let u = Relset.lowest_bit s in
  pi_span t u (Relset.diff s u)

let pi_induced t s =
  Relset.fold
    (fun acc i ->
      Relset.fold
        (fun acc j -> if j > i && t.edge.(idx t i j) then acc *. t.sel.(idx t i j) else acc)
        acc s)
    1.0 s

let join_cardinality catalog t s =
  let cards = Relset.fold (fun acc i -> acc *. Blitz_catalog.Catalog.card catalog i) 1.0 s in
  cards *. pi_induced t s
