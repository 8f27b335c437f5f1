module Relset = Blitz_bitset.Relset

type t = (Relset.t * float) list

let of_join_graph graph =
  List.map (fun (i, j, sel) -> (Relset.of_list [ i; j ], sel)) (Join_graph.edges graph)

(* Flat arrays for the inner loops that index hyperedges by small
   integer position: the multiway planner and the AGM fractional-cover
   solver both need exactly [members]/[sel] as parallel arrays, so the
   packing lives here instead of being re-derived privately at each call
   site. *)
type packed = { members : Relset.t array; sel : float array }

let pack t =
  let edges = Array.of_list t in
  { members = Array.map fst edges; sel = Array.map snd edges }

let induced p s =
  let acc = ref [] in
  for e = Array.length p.members - 1 downto 0 do
    if Relset.subset p.members.(e) s then acc := e :: !acc
  done;
  !acc
