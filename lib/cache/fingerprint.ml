module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

(* FNV-ish avalanche step; everything below hashes through it. *)
let mix h x =
  let h = h lxor x in
  let h = h * 0x100000001b3 in
  h lxor (h lsr 29)

let float_bits (x : float) = Int64.to_int (Int64.bits_of_float x)

type scratch = {
  mutable n : int;
  (* WL keys, caller index space; [_next] is the double buffer. *)
  mutable keys : int array;
  mutable keys_next : int array;
  mutable perm : int array;  (* canonical position -> caller index *)
  mutable inv : int array;  (* caller index -> canonical position *)
  mutable deg : int array;
  mutable cards : float array;  (* canonical order *)
  (* canonical edges, (i < j) lexicographic in canonical positions *)
  mutable edges_i : int array;
  mutable edges_j : int array;
  mutable edges_sel : float array;
  mutable edge_count : int;
  mutable hash : int;
  mutable md : int;  (* model digest folded into the last [compute] *)
  mutable residual_ties : bool;
}

let create_scratch () =
  {
    n = 0;
    keys = [||];
    keys_next = [||];
    perm = [||];
    inv = [||];
    deg = [||];
    cards = [||];
    edges_i = [||];
    edges_j = [||];
    edges_sel = [||];
    edge_count = 0;
    hash = 0;
    md = 0;
    residual_ties = false;
  }

let grow_int a len = if Array.length a >= len then a else Array.make len 0
let grow_float a len = if Array.length a >= len then a else Array.make len 0.0

let ensure_capacity s n =
  let ne = n * (n - 1) / 2 in
  s.keys <- grow_int s.keys n;
  s.keys_next <- grow_int s.keys_next n;
  s.perm <- grow_int s.perm n;
  s.inv <- grow_int s.inv n;
  s.deg <- grow_int s.deg n;
  s.cards <- grow_float s.cards n;
  s.edges_i <- grow_int s.edges_i ne;
  s.edges_j <- grow_int s.edges_j ne;
  s.edges_sel <- grow_float s.edges_sel ne

let string_hash str = String.fold_left (fun h c -> mix h (Char.code c)) 0x811c9dc5 str

(* The name alone under-identifies a model: [disk_nested_loops] reports
   "kdnl" for every blocking factor / memory budget, and [min_of]
   compositions reuse component behavior.  Probing [kappa] at fixed
   points separates any two models that could ever cost a join
   differently at those scales. *)
let probe_points =
  [|
    (1.0, 1.0, 1.0);
    (10.0, 10.0, 10.0);
    (1e3, 1e2, 10.0);
    (5e4, 2e3, 3e3);
    (1e6, 1e4, 1e5);
    (1e9, 1e7, 1e6);
    (0.5, 0.25, 2.0);
  |]

let model_digest (m : Cost_model.t) =
  let h = ref (string_hash m.Cost_model.name) in
  Array.iter
    (fun (out, lcard, rcard) ->
      h := mix !h (float_bits (Cost_model.kappa m ~out ~lcard ~rcard)))
    probe_points;
  !h

(* In-place insertion sort of [order.(0..n-1)]; allocation-free and
   plenty fast at bitset-bounded n. *)
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

let seed_full = 0x1e3779b97f4a7c15 (* 63-bit truncations of the usual constants *)
let seed_edge = 0x2545f4914f6cdd1d

let compute s ~model_digest:md catalog graph =
  let n = Catalog.n catalog in
  (match graph with
  | Some g when Join_graph.n g <> n ->
      invalid_arg "Fingerprint.compute: graph size differs from catalog"
  | _ -> ());
  ensure_capacity s n;
  s.n <- n;
  let has i j = match graph with None -> false | Some g -> Join_graph.has_edge g i j in
  let sel i j = match graph with None -> 1.0 | Some g -> Join_graph.selectivity g i j in
  for i = 0 to n - 1 do
    s.deg.(i) <- (match graph with None -> 0 | Some g -> Join_graph.degree g i)
  done;
  (* Seed keys with the vertex-local signature... *)
  for i = 0 to n - 1 do
    s.keys.(i) <- mix (mix seed_full (float_bits (Catalog.card catalog i))) s.deg.(i)
  done;
  (* ...then refine: each round folds the commutative sum of every
     neighbor's (selectivity, key) into the vertex key, so after n
     rounds a key reflects its whole connected component.  The sum (not
     an ordered fold) is what makes the rounds labeling-invariant. *)
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
  (* Canonical order: cardinality, then degree, then refined key;
     original index as the last resort (recorded as a residual tie). *)
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
  s.residual_ties <- false;
  for c = 0 to n - 2 do
    let a = s.perm.(c) and b = s.perm.(c + 1) in
    if Float.equal (card a) (card b) && s.deg.(a) = s.deg.(b) && s.keys.(a) = s.keys.(b)
    then s.residual_ties <- true
  done;
  for c = 0 to n - 1 do
    s.inv.(s.perm.(c)) <- c;
    s.cards.(c) <- card s.perm.(c)
  done;
  (* Canonical edge list: enumerate canonical-position pairs in (i, j)
     lexicographic order, so the list is sorted by construction. *)
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
  s.md <- md

let hash s = s.hash
let residual_ties s = s.residual_ties

type frozen = {
  f_n : int;
  f_hash : int;
  f_md : int;
  f_cards : float array;
  f_edges_i : int array;
  f_edges_j : int array;
  f_edges_sel : float array;
  f_perm : int array;  (* the storing caller's labeling *)
}

let freeze s =
  {
    f_n = s.n;
    f_hash = s.hash;
    f_md = s.md;
    f_cards = Array.sub s.cards 0 s.n;
    f_edges_i = Array.sub s.edges_i 0 s.edge_count;
    f_edges_j = Array.sub s.edges_j 0 s.edge_count;
    f_edges_sel = Array.sub s.edges_sel 0 s.edge_count;
    f_perm = Array.sub s.perm 0 s.n;
  }

let frozen_hash f = f.f_hash

let frozen_bytes f =
  let word = Sys.word_size / 8 in
  (* record + 6 array headers + payloads *)
  (8 * word) + (6 * word) + (word * ((2 * f.f_n) + (3 * Array.length f.f_edges_i)))

let matches s f =
  s.n = f.f_n && s.hash = f.f_hash && s.md = f.f_md
  && s.edge_count = Array.length f.f_edges_i
  && (let ok = ref true in
      for c = 0 to s.n - 1 do
        if not (Float.equal s.cards.(c) f.f_cards.(c)) then ok := false
      done;
      for e = 0 to s.edge_count - 1 do
        if
          s.edges_i.(e) <> f.f_edges_i.(e)
          || s.edges_j.(e) <> f.f_edges_j.(e)
          || not (Float.equal s.edges_sel.(e) f.f_edges_sel.(e))
        then ok := false
      done;
      !ok)

let same_labeling s f =
  s.n = f.f_n
  &&
  let ok = ref true in
  for c = 0 to s.n - 1 do
    if s.perm.(c) <> f.f_perm.(c) then ok := false
  done;
  !ok

let canonize_plan s plan = Plan.map_leaves (fun i -> s.inv.(i)) plan
let rebase_plan s plan = Plan.map_leaves (fun c -> s.perm.(c)) plan
