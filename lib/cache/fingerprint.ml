module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Relset = Blitz_bitset.Relset

(* FNV-ish avalanche step; everything below hashes through it. *)
let mix h x =
  let h = h lxor x in
  let h = h * 0x100000001b3 in
  h lxor (h lsr 29)

let float_bits (x : float) = Int64.to_int (Int64.bits_of_float x)

type scratch = {
  mutable n : int;
  (* Caller index space: cardinalities, neighbour masks and degrees. *)
  mutable card_of : float array;
  mutable nbrs : int array;
  mutable deg : int array;
  (* WL keys, caller index space; [_next] is the double buffer. *)
  mutable keys : int array;
  mutable keys_next : int array;
  (* Adjacency lists for the refinement rounds: relation [i]'s
     neighbours are [adj.(adj_start.(i) .. adj_start.(i + 1) - 1)], each
     beside its edge's selectivity digest; [fill] is the build cursor. *)
  mutable adj_start : int array;
  mutable fill : int array;
  mutable adj : int array;
  mutable adj_digest : int array;
  sel : float array;  (* one slot: a selectivity read without boxing *)
  mutable perm : int array;  (* canonical position -> caller index *)
  mutable inv : int array;  (* caller index -> canonical position *)
  mutable cards : float array;  (* canonical order *)
  (* canonical edges, (i < j) lexicographic in canonical positions *)
  mutable edges_i : int array;
  mutable edges_j : int array;
  mutable edges_sel : float array;
  mutable edge_count : int;
  mutable hash : int;
  mutable md : int;  (* model digest folded into the last [compute] *)
}

let create_scratch () =
  {
    n = 0;
    card_of = [||];
    nbrs = [||];
    deg = [||];
    keys = [||];
    keys_next = [||];
    adj_start = [||];
    fill = [||];
    adj = [||];
    adj_digest = [||];
    sel = [| 0.0 |];
    perm = [||];
    inv = [||];
    cards = [||];
    edges_i = [||];
    edges_j = [||];
    edges_sel = [||];
    edge_count = 0;
    hash = 0;
    md = 0;
  }

let grow_int a len = if Array.length a >= len then a else Array.make len 0
let grow_float a len = if Array.length a >= len then a else Array.make len 0.0

let ensure_capacity s n =
  let ne = n * (n - 1) / 2 in
  s.card_of <- grow_float s.card_of n;
  s.nbrs <- grow_int s.nbrs n;
  s.deg <- grow_int s.deg n;
  s.keys <- grow_int s.keys n;
  s.keys_next <- grow_int s.keys_next n;
  s.adj_start <- grow_int s.adj_start (n + 1);
  s.fill <- grow_int s.fill n;
  s.adj <- grow_int s.adj (2 * ne);
  s.adj_digest <- grow_int s.adj_digest (2 * ne);
  s.perm <- grow_int s.perm n;
  s.inv <- grow_int s.inv n;
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

let seed_full = 0x1e3779b97f4a7c15 (* 63-bit truncations of the usual constants *)
let seed_edge = 0x2545f4914f6cdd1d

(* Canonical order: cardinality, then degree, then (once refined) the
   WL key; original index as the last resort. *)
let[@inline] before s ~refined a b =
  let c = Float.compare s.card_of.(a) s.card_of.(b) in
  if c <> 0 then c < 0
  else if s.deg.(a) <> s.deg.(b) then s.deg.(a) < s.deg.(b)
  else if refined && s.keys.(a) <> s.keys.(b) then s.keys.(a) < s.keys.(b)
  else a < b

(* In-place insertion sort of [perm.(0..n-1)]; allocation-free and
   plenty fast at bitset-bounded n, and nearly linear on the second,
   refined sort, which only reorders runs of tied relations. *)
let sort_perm s n ~refined =
  let perm = s.perm in
  for i = 1 to n - 1 do
    let x = perm.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && before s ~refined x perm.(!j) do
      perm.(!j + 1) <- perm.(!j);
      decr j
    done;
    perm.(!j + 1) <- x
  done

(* Whether two relations tie on (cardinality, degree), once sorted. *)
let has_tie s n =
  let tie = ref false in
  for c = 0 to n - 2 do
    let a = s.perm.(c) and b = s.perm.(c + 1) in
    if Float.compare s.card_of.(a) s.card_of.(b) = 0 && s.deg.(a) = s.deg.(b) then tie := true
  done;
  !tie

(* Adjacency lists from the neighbour masks, each edge's selectivity
   read and digested once and written to both endpoints' lists.  A mask
   bit test is cheaper than extracting the set bits at these sizes. *)
let layout s graph n =
  s.adj_start.(0) <- 0;
  for i = 0 to n - 1 do
    s.adj_start.(i + 1) <- s.adj_start.(i) + s.deg.(i);
    s.fill.(i) <- s.adj_start.(i)
  done;
  match graph with
  | None -> ()
  | Some g ->
    for i = 0 to n - 1 do
      let m = s.nbrs.(i) in
      for j = i + 1 to n - 1 do
        if m land (1 lsl j) <> 0 then begin
          Join_graph.selectivity_into g i j s.sel 0;
          let d = mix seed_edge (float_bits s.sel.(0)) in
          let ki = s.fill.(i) and kj = s.fill.(j) in
          s.adj.(ki) <- j;
          s.adj_digest.(ki) <- d;
          s.fill.(i) <- ki + 1;
          s.adj.(kj) <- i;
          s.adj_digest.(kj) <- d;
          s.fill.(j) <- kj + 1
        end
      done
    done

(* Seed keys with the vertex-local signature, then refine: each round
   folds the commutative sum of every neighbour's (selectivity, key)
   into the vertex key, so after n rounds a key reflects its whole
   connected component.  The sum (not an ordered fold) is what makes
   the rounds labeling-invariant. *)
let refine s n =
  for i = 0 to n - 1 do
    s.keys.(i) <- mix (mix seed_full (float_bits s.card_of.(i))) s.deg.(i)
  done;
  let start = s.adj_start and adj = s.adj and digest = s.adj_digest in
  for _round = 1 to n do
    let keys = s.keys and next = s.keys_next in
    for i = 0 to n - 1 do
      let acc = ref 0 in
      for k = start.(i) to start.(i + 1) - 1 do
        acc := !acc + mix digest.(k) keys.(adj.(k))
      done;
      next.(i) <- mix keys.(i) !acc
    done;
    s.keys <- next;
    s.keys_next <- keys
  done

let compute s ~model_digest:md catalog graph =
  let n = Catalog.n catalog in
  (match graph with
  | Some g when Join_graph.n g <> n ->
      invalid_arg "Fingerprint.compute: graph size differs from catalog"
  | _ -> ());
  ensure_capacity s n;
  s.n <- n;
  for i = 0 to n - 1 do
    Catalog.card_into catalog i s.card_of i;
    let m = match graph with None -> Relset.empty | Some g -> Join_graph.neighbors g i in
    s.nbrs.(i) <- m;
    s.deg.(i) <- Relset.cardinal m;
    s.perm.(i) <- i
  done;
  sort_perm s n ~refined:false;
  (* Without a tie on (cardinality, degree) the order is already total
     and the hash never reads a key, so the rounds could change
     nothing. *)
  if has_tie s n then begin
    layout s graph n;
    refine s n;
    sort_perm s n ~refined:true
  end;
  for c = 0 to n - 1 do
    s.inv.(s.perm.(c)) <- c;
    s.cards.(c) <- s.card_of.(s.perm.(c))
  done;
  (* Canonical edge list: canonical pairs in (i, j) lexicographic order,
     each tested against the neighbour mask, so the list is sorted by
     construction. *)
  let ec = ref 0 in
  (match graph with
  | None -> ()
  | Some g ->
    for ci = 0 to n - 1 do
      let a = s.perm.(ci) in
      let m = s.nbrs.(a) in
      for cj = ci + 1 to n - 1 do
        let b = s.perm.(cj) in
        if m land (1 lsl b) <> 0 then begin
          s.edges_i.(!ec) <- ci;
          s.edges_j.(!ec) <- cj;
          Join_graph.selectivity_into g a b s.edges_sel !ec;
          incr ec
        end
      done
    done);
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
