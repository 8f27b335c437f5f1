(* The canonical labeling as the library computed it before the scratch
   held an adjacency layout: every call runs n refinement rounds over
   all n² pairs, through [Join_graph.has_edge] and a returned
   [selectivity], and enumerates the canonical edge list pair by pair.
   Kept outside the library as the oracle that
   [Blitz_cache.Fingerprint.compute] must match bit for bit. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Plan = Blitz_plan.Plan

let mix h x =
  let h = h lxor x in
  let h = h * 0x100000001b3 in
  h lxor (h lsr 29)

let float_bits (x : float) = Int64.to_int (Int64.bits_of_float x)

type t = {
  n : int;
  keys : int array;
  keys_next : int array;
  perm : int array;  (* canonical position -> caller index *)
  inv : int array;  (* caller index -> canonical position *)
  deg : int array;
  cards : float array;  (* canonical order *)
  edges_i : int array;
  edges_j : int array;
  edges_sel : float array;
  mutable edge_count : int;
  mutable hash : int;
  md : int;
}

let sort_order order n cmp =
  for i = 1 to n - 1 do
    let x = order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && cmp order.(!j) x > 0 do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- x
  done

let seed_full = 0x1e3779b97f4a7c15
let seed_edge = 0x2545f4914f6cdd1d

let compute ~model_digest:md catalog graph =
  let n = Catalog.n catalog in
  (match graph with
  | Some g when Join_graph.n g <> n ->
      invalid_arg "Fingerprint_reference.compute: graph size differs from catalog"
  | _ -> ());
  let ne = n * (n - 1) / 2 in
  let s =
    {
      n;
      keys = Array.make n 0;
      keys_next = Array.make n 0;
      perm = Array.make n 0;
      inv = Array.make n 0;
      deg = Array.make n 0;
      cards = Array.make n 0.0;
      edges_i = Array.make ne 0;
      edges_j = Array.make ne 0;
      edges_sel = Array.make ne 0.0;
      edge_count = 0;
      hash = 0;
      md;
    }
  in
  let has i j = match graph with None -> false | Some g -> Join_graph.has_edge g i j in
  let sel i j = match graph with None -> 1.0 | Some g -> Join_graph.selectivity g i j in
  for i = 0 to n - 1 do
    s.deg.(i) <- (match graph with None -> 0 | Some g -> Join_graph.degree g i)
  done;
  for i = 0 to n - 1 do
    s.keys.(i) <- mix (mix seed_full (float_bits (Catalog.card catalog i))) s.deg.(i)
  done;
  for _round = 1 to n do
    for i = 0 to n - 1 do
      let acc = ref 0 in
      for j = 0 to n - 1 do
        if j <> i && has i j then
          acc := !acc + mix (mix seed_edge (float_bits (sel i j))) s.keys.(j)
      done;
      s.keys_next.(i) <- mix s.keys.(i) !acc
    done;
    for i = 0 to n - 1 do
      s.keys.(i) <- s.keys_next.(i)
    done
  done;
  let card i = Catalog.card catalog i in
  let cmp_full a b =
    let c = Float.compare (card a) (card b) in
    if c <> 0 then c
    else
      let c = compare s.deg.(a) s.deg.(b) in
      if c <> 0 then c
      else
        let c = compare s.keys.(a) s.keys.(b) in
        if c <> 0 then c else compare a b
  in
  for i = 0 to n - 1 do
    s.perm.(i) <- i
  done;
  sort_order s.perm n cmp_full;
  for c = 0 to n - 1 do
    s.inv.(s.perm.(c)) <- c;
    s.cards.(c) <- card s.perm.(c)
  done;
  let ec = ref 0 in
  for ci = 0 to n - 1 do
    for cj = ci + 1 to n - 1 do
      let a = s.perm.(ci) and b = s.perm.(cj) in
      if has a b then begin
        s.edges_i.(!ec) <- ci;
        s.edges_j.(!ec) <- cj;
        s.edges_sel.(!ec) <- sel a b;
        incr ec
      end
    done
  done;
  s.edge_count <- !ec;
  let h = ref (mix (mix seed_full md) n) in
  for c = 0 to n - 1 do
    h := mix !h (float_bits s.cards.(c))
  done;
  for e = 0 to !ec - 1 do
    h := mix (mix (mix !h s.edges_i.(e)) s.edges_j.(e)) (float_bits s.edges_sel.(e))
  done;
  s.hash <- !h;
  s

let hash s = s.hash
let canonize_plan s plan = Plan.map_leaves (fun i -> s.inv.(i)) plan

let same_form a b =
  let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  a.n = b.n && a.md = b.md && a.edge_count = b.edge_count
  && List.for_all (fun c -> same_bits a.cards.(c) b.cards.(c)) (List.init a.n Fun.id)
  && List.for_all
       (fun e ->
         a.edges_i.(e) = b.edges_i.(e)
         && a.edges_j.(e) = b.edges_j.(e)
         && same_bits a.edges_sel.(e) b.edges_sel.(e))
       (List.init a.edge_count Fun.id)
