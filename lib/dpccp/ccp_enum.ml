module Relset = Blitz_bitset.Relset
module Join_graph = Blitz_graph.Join_graph

(* The adjacency masks are copied out of the graph once per call so the
   recursion reads a flat int array with no bounds checks; everything
   below works on raw ints (subsets-as-integers, Section 4.1 of the
   paper) and allocates nothing in the enumeration itself. *)
let neighbor_masks graph =
  let n = Join_graph.n graph in
  Array.init n (fun i -> Join_graph.neighbors graph i)

let neighborhood_masks nb s x =
  let acc = ref 0 and rest = ref s in
  while !rest <> 0 do
    let b = !rest land - !rest in
    acc := !acc lor Array.unsafe_get nb (Relset.min_elt b);
    rest := !rest lxor b
  done;
  !acc land lnot (s lor x)

(* EnumerateCsgRec (Moerkotte & Neumann 2006): grow the connected set
   [s] by every nonempty subset of its free neighborhood, emitting each
   enlargement, then recurse into each enlargement with the whole
   neighborhood forbidden so no connected set is produced twice.  The
   two passes — emit all level-k enlargements, then descend — are what
   guarantee that every connected set is emitted after all its
   same-minimum connected subsets, which in turn is what lets the DP
   driver process csg-cmp pairs the moment they appear (no collect +
   sort-by-size pass, the baseline enumerator's allocation hotspot). *)
let rec csg_rec nb emit s x =
  let nbh = neighborhood_masks nb s x in
  if nbh <> 0 then begin
    (* Nonempty subsets of [nbh] in dilated counting order, the
       successor trick of Section 4.2; the full neighborhood comes
       last, exactly as [Relset.iter_proper_subsets] + the set itself. *)
    let sub = ref (nbh land -nbh) in
    let go = ref true in
    while !go do
      emit (s lor !sub);
      if !sub = nbh then go := false else sub := nbh land (!sub - nbh)
    done;
    let x' = x lor nbh in
    let sub = ref (nbh land -nbh) in
    let go = ref true in
    while !go do
      csg_rec nb emit (s lor !sub) x';
      if !sub = nbh then go := false else sub := nbh land (!sub - nbh)
    done
  end

(* EnumerateCsg: start from each singleton {i}, i = n-1 downto 0, with
   all smaller indexes forbidden — the canonical "B_i" start sets. *)
let iter_csg_from nb i emit =
  let s = 1 lsl i in
  emit s;
  csg_rec nb emit s ((1 lsl (i + 1)) - 1)

(* EnumerateCmp: connected subgraphs of the complement adjacent to
   [s1], canonically those whose minimum element exceeds [min s1]. *)
let iter_cmp nb n emit s1 =
  let x = ((1 lsl (Relset.min_elt s1 + 1)) - 1) lor s1 in
  let nbh = neighborhood_masks nb s1 x in
  if nbh <> 0 then
    for i = n - 1 downto 0 do
      if nbh land (1 lsl i) <> 0 then begin
        let s = 1 lsl i in
        emit s;
        let bi = ((1 lsl (i + 1)) - 1) land nbh in
        csg_rec nb emit s (x lor bi)
      end
    done

let iter_ccp graph f =
  let nb = neighbor_masks graph in
  let n = Array.length nb in
  for i = n - 1 downto 0 do
    iter_csg_from nb i (fun s1 -> iter_cmp nb n (fun s2 -> f s1 s2) s1)
  done
