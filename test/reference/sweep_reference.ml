(* Sweep 1 of a blitzsplit pass as the library ran it before the sweep
   became one kernel per cost model: per subset, the property
   computation, then §6.4's skip test through its own call, with the
   counters bumped in place and the paper models' aux memo written under
   every model.  Kept outside the library as the oracle that
   [Blitz_core.Split_loop.sweep] must match bit for bit. *)

module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Counters = Blitz_core.Counters
module Dp_table = Blitz_core.Dp_table

let aux_of (model : Cost_model.t) c =
  match model.kind with
  | Cost_model.Paper_naive | Cost_model.Paper_dnl _ -> c
  | Cost_model.Paper_sort_merge -> if c <= 1.0 then c else c *. (1.0 +. log c)
  | Cost_model.Opaque -> model.aux c

let init_singletons (tbl : Dp_table.t) (model : Cost_model.t) catalog =
  let fan = Dp_table.has_pi_fan tbl in
  for i = 0 to Catalog.n catalog - 1 do
    let s = 1 lsl i in
    Catalog.card_into catalog i tbl.card s;
    tbl.cost.(s) <- 0.0;
    tbl.best_lhs.(s) <- 0;
    if fan then tbl.pi_fan.(s) <- 1.0;
    tbl.aux.(s) <- aux_of model tbl.card.(s)
  done

let compute_properties_join (tbl : Dp_table.t) (model : Cost_model.t) graph s =
  let pi_fan = tbl.pi_fan and card = tbl.card in
  let u = s land (-s) in
  let v = s lxor u in
  if v land (v - 1) = 0 then
    Join_graph.selectivity_into graph (Relset.min_elt u) (Relset.min_elt v) pi_fan s
  else begin
    let w = v land (-v) in
    let z = v lxor w in
    pi_fan.(s) <- pi_fan.(u lor w) *. pi_fan.(u lor z)
  end;
  let c = card.(u) *. card.(v) *. pi_fan.(s) in
  card.(s) <- c;
  tbl.aux.(s) <- aux_of model c

let compute_properties_product (tbl : Dp_table.t) (model : Cost_model.t) s =
  let u = s land (-s) in
  let c = tbl.card.(u) *. tbl.card.(s lxor u) in
  tbl.card.(s) <- c;
  tbl.aux.(s) <- aux_of model c

let completion_threshold (tbl : Dp_table.t) ~threshold s =
  let full = (1 lsl tbl.n) - 1 in
  if s = full then threshold
  else begin
    let term = ref tbl.aux.(s) in
    let rest = ref (full lxor s) in
    while !rest <> 0 && !term < threshold do
      let r = !rest land (- !rest) in
      term := !term +. tbl.aux.(r);
      rest := !rest lxor r
    done;
    threshold -. !term
  end

let skip_subset (tbl : Dp_table.t) (ctr : Counters.t) s =
  ctr.threshold_skips <- ctr.threshold_skips + 1;
  ctr.infeasible <- ctr.infeasible + 1;
  tbl.cost.(s) <- Float.infinity;
  tbl.best_lhs.(s) <- 0

let seed ~completion (tbl : Dp_table.t) (model : Cost_model.t) (ctr : Counters.t) ~threshold s =
  ctr.subsets <- ctr.subsets + 1;
  match model.kind with
  | Cost_model.Paper_sort_merge when completion ->
    let bound = completion_threshold tbl ~threshold s in
    if 0.0 >= bound then begin
      skip_subset tbl ctr s;
      false
    end
    else begin
      tbl.cost.(s) <- bound;
      true
    end
  | _ ->
    let out = tbl.card.(s) in
    let kp =
      match model.kind with
      | Cost_model.Paper_naive -> out
      | Cost_model.Paper_sort_merge -> 0.0
      | Cost_model.Paper_dnl { k; _ } -> 2.0 *. out /. k
      | Cost_model.Opaque -> model.k_prime out
    in
    if kp >= threshold then begin
      skip_subset tbl ctr s;
      false
    end
    else begin
      tbl.cost.(s) <- threshold -. kp;
      true
    end

let sweep ~graph ~interrupt tbl model ctr ~threshold =
  let completion =
    match model.Cost_model.kind with
    | Cost_model.Paper_sort_merge -> Float.is_finite threshold
    | Cost_model.Paper_naive | Cost_model.Paper_dnl _ | Cost_model.Opaque -> false
  in
  let kept = ref [] in
  for s = 3 to (1 lsl tbl.Dp_table.n) - 1 do
    (match interrupt with
    | Some probe when s land 63 = 0 && probe () -> raise Blitz_core.Blitzsplit.Interrupted
    | Some _ | None -> ());
    if s land (s - 1) <> 0 then begin
      (match graph with
      | Some g -> compute_properties_join tbl model g s
      | None -> compute_properties_product tbl model s);
      if seed ~completion tbl model ctr ~threshold s then kept := s :: !kept
    end
  done;
  List.rev !kept
