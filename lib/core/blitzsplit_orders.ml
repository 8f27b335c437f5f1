module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model

type phys =
  | Scan of int
  | Sort of phys * int
  | Nested_loop of phys * phys
  | Merge_join of phys * phys * int

let rec order_of = function
  | Scan _ -> None
  | Sort (_, e) -> Some e
  | Nested_loop (l, _) -> order_of l
  | Merge_join (_, _, e) -> Some e

let sort_cost c = if c <= 1.0 then 0.0 else c *. log c

let phys_cost catalog graph plan =
  let dnl = Cost_model.kdnl in
  (* Returns (cost, set, cardinality, delivered order). *)
  let rec go = function
    | Scan r -> (0.0, Relset.singleton r, Catalog.card catalog r, None)
    | Sort (p, e) ->
      let c, set, card, _ = go p in
      let ei, ej, _ =
        match List.nth_opt (Join_graph.edges graph) e with
        | Some edge -> edge
        | None -> invalid_arg "phys_cost: edge id out of range"
      in
      if not (Relset.mem set ei || Relset.mem set ej) then
        invalid_arg "phys_cost: sort attribute absent from the input";
      (c +. sort_cost card, set, card, Some e)
    | Nested_loop (l, r) ->
      let cl, sl, kl, ol = go l in
      let cr, sr, kr, _ = go r in
      if not (Relset.disjoint sl sr) then invalid_arg "phys_cost: operands share a relation";
      let set = Relset.union sl sr in
      let out = kl *. kr *. Join_graph.pi_span graph sl sr in
      (cl +. cr +. Cost_model.kappa dnl ~out ~lcard:kl ~rcard:kr, set, out, ol)
    | Merge_join (l, r, e) ->
      let cl, sl, kl, ol = go l in
      let cr, sr, kr, orr = go r in
      if ol <> Some e || orr <> Some e then
        invalid_arg "phys_cost: merge-join inputs must deliver the join order";
      if not (Relset.disjoint sl sr) then invalid_arg "phys_cost: operands share a relation";
      let ei, ej, _ =
        match List.nth_opt (Join_graph.edges graph) e with
        | Some edge -> edge
        | None -> invalid_arg "phys_cost: edge id out of range"
      in
      (* The merged edge must actually span the operands. *)
      let spans =
        (Relset.mem sl ei && Relset.mem sr ej) || (Relset.mem sl ej && Relset.mem sr ei)
      in
      if not spans then invalid_arg "phys_cost: merge edge does not span the operands";
      let set = Relset.union sl sr in
      let out = kl *. kr *. Join_graph.pi_span graph sl sr in
      (cl +. cr +. kl +. kr, set, out, Some e)
  in
  let cost, _, _, _ = go plan in
  cost

type result = { plan : phys; cost : float; states : int }

(* Back-pointer encodings for the (subset, order) table. *)
let alg_none = -1 (* singleton scan *)
let alg_sort = -2 (* order enforcer over (s, from_order) *)
let alg_nl = -3 (* nested loop; lhs order = from_order, rhs slot 0 *)
(* alg >= 0: merge join on that edge id; inputs at slots e+1. *)

let optimize ?required_order catalog graph =
  let n = Catalog.n catalog in
  if Join_graph.n graph <> n then invalid_arg "Blitzsplit_orders: graph/catalog size mismatch";
  if n > Dp_table.max_relations then invalid_arg "Blitzsplit_orders: too many relations";
  let edges = Array.of_list (Join_graph.edges graph) in
  let n_edges = Array.length edges in
  (match required_order with
  | Some e when e < 0 || e >= n_edges -> invalid_arg "Blitzsplit_orders: required_order out of range"
  | Some _ | None -> ());
  let stride = n_edges + 1 in
  let slots = 1 lsl n in
  if stride * slots > 1 lsl 27 then
    invalid_arg "Blitzsplit_orders: (edges+1) * 2^n state table exceeds the memory cap";
  let dnl = Cost_model.kdnl in
  let card = Card_table.compute catalog graph in
  let cost = Array.make (stride * slots) Float.infinity in
  let from_lhs = Array.make (stride * slots) 0 in
  let alg = Array.make (stride * slots) alg_none in
  let from_order = Array.make (stride * slots) 0 in
  let full = slots - 1 in
  (* Is order (edge id) interesting for subset s?  Its edge must cross
     the subset's boundary — or be the required final order, which stays
     interesting at every subset that can realize it (sorting early and
     threading the order up may beat sorting the final result). *)
  let interesting e s =
    let i, j, _ = edges.(e) in
    let mi = Relset.mem s i and mj = Relset.mem s j in
    (mi <> mj) || (required_order = Some e && (mi || mj))
  in
  let update slot c lhs a o =
    if c < cost.(slot) then begin
      cost.(slot) <- c;
      from_lhs.(slot) <- lhs;
      alg.(slot) <- a;
      from_order.(slot) <- o
    end
  in
  (* Singletons: scan at slot 0; enforcers fill interesting orders. *)
  for r = 0 to n - 1 do
    let s = 1 lsl r in
    cost.((s * stride) + 0) <- 0.0;
    alg.((s * stride) + 0) <- alg_none;
    for e = 0 to n_edges - 1 do
      if interesting e s then
        update ((s * stride) + e + 1) (sort_cost card.(s)) s alg_sort 0
    done
  done;
  let states = ref (n * stride) in
  for s = 3 to full do
    if s land (s - 1) <> 0 then begin
      states := !states + stride;
      let base = s * stride in
      let out = card.(s) in
      let lhs = ref (s land (-s)) in
      while !lhs <> s do
        let l = !lhs in
        let r = s lxor l in
        let lbase = l * stride and rbase = r * stride in
        let lcard = card.(l) and rcard = card.(r) in
        (* Nested loops: any delivered order of the outer survives. *)
        let nl_kappa = Cost_model.kappa dnl ~out ~lcard ~rcard in
        let rbest = cost.(rbase) in
        if Float.is_finite rbest then begin
          for o = 0 to n_edges do
            let cl = cost.(lbase + o) in
            if Float.is_finite cl then begin
              let target = if o > 0 && interesting (o - 1) s then o else 0 in
              update (base + target) (cl +. rbest +. nl_kappa) l alg_nl o
            end
          done
        end;
        (* Merge join on each edge spanning the split: both inputs at
           the sorted slot (enforcers already folded in), plus one scan
           of each input. *)
        for e = 0 to n_edges - 1 do
          let i, j, _ = edges.(e) in
          let spans =
            (Relset.mem l i && Relset.mem r j) || (Relset.mem l j && Relset.mem r i)
          in
          if spans then begin
            let cl = cost.(lbase + e + 1) and cr = cost.(rbase + e + 1) in
            if Float.is_finite cl && Float.is_finite cr then begin
              let target = if interesting e s then e + 1 else 0 in
              update (base + target) (cl +. cr +. lcard +. rcard) l e e
            end
          end
        done;
        lhs := s land (l - s)
      done;
      (* Slot 0 holds the overall best (an ordered result satisfies "no
         guarantee"): fold ordered slots in first, so the enforcers below
         start from the true minimum. *)
      for e = 0 to n_edges - 1 do
        let c = cost.(base + e + 1) in
        if c < cost.(base) then begin
          cost.(base) <- c;
          from_lhs.(base) <- from_lhs.(base + e + 1);
          alg.(base) <- alg.(base + e + 1);
          from_order.(base) <- from_order.(base + e + 1)
        end
      done;
      (* Enforcers: any interesting order is reachable from the best
         plan overall by an explicit sort. *)
      let best_any = cost.(base) in
      if Float.is_finite best_any then
        for e = 0 to n_edges - 1 do
          if interesting e s then
            update (base + e + 1) (best_any +. sort_cost out) s alg_sort 0
        done
    end
  done;
  let rec extract s slot =
    let idx = (s * stride) + slot in
    match alg.(idx) with
    | a when a = alg_none -> Scan (Relset.min_elt s)
    | a when a = alg_sort ->
      (* from_order names the source slot (always 0 here). *)
      Sort (extract s from_order.(idx), slot - 1)
    | a when a = alg_nl ->
      let l = from_lhs.(idx) in
      Nested_loop (extract l from_order.(idx), extract (s lxor l) 0)
    | e ->
      let l = from_lhs.(idx) in
      Merge_join (extract l (e + 1), extract (s lxor l) (e + 1), e)
  in
  let final_slot = match required_order with Some e -> e + 1 | None -> 0 in
  let idx = (full * stride) + final_slot in
  if not (Float.is_finite cost.(idx)) then
    failwith "Blitzsplit_orders.optimize: no plan (unreachable for finite inputs)";
  { plan = extract full final_slot; cost = cost.(idx); states = !states }

(* The Section 6.5 multiple-algorithms baseline, made physical: each
   join costs min(kappa_dnl, kappa_sm), except that sort-merge is only
   available when some predicate spans the operands (one cannot
   merge-join on a nonexistent attribute).  A plain subset DP — no order
   reuse. *)
let sm_dnl_reference_cost catalog graph =
  let n = Catalog.n catalog in
  let dnl = Cost_model.kdnl and sm = Cost_model.sort_merge in
  let card = Card_table.compute catalog graph in
  let slots = 1 lsl n in
  let cost = Array.make slots Float.infinity in
  for i = 0 to n - 1 do
    cost.(1 lsl i) <- 0.0
  done;
  for s = 3 to slots - 1 do
    if s land (s - 1) <> 0 then begin
      let out = card.(s) in
      let lhs = ref (s land (-s)) in
      while !lhs <> s do
        let l = !lhs in
        let r = s lxor l in
        let lcard = card.(l) and rcard = card.(r) in
        let kappa_nl = Cost_model.kappa dnl ~out ~lcard ~rcard in
        let kappa =
          if Join_graph.crosses graph l r then
            Float.min kappa_nl (Cost_model.kappa sm ~out ~lcard ~rcard)
          else kappa_nl
        in
        let c = cost.(l) +. cost.(r) +. kappa in
        if c < cost.(s) then cost.(s) <- c;
        lhs := s land (l - s)
      done
    end
  done;
  cost.(slots - 1)
