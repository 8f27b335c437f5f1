module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Equivalence = Blitz_graph.Equivalence
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

let max_classes = 62

type t = {
  table : Dp_table.t;
  counters : Counters.t;
  catalog : Catalog.t;
  equivalence : Equivalence.t;
  model : Cost_model.t;
  threshold : float;
}

let optimize ?arena ?counters ?(threshold = Float.infinity) model catalog equivalence =
  if threshold <= 0.0 then invalid_arg "Blitzsplit_eq: threshold must be positive";
  let n = Catalog.n catalog in
  if Equivalence.n equivalence <> n then
    invalid_arg
      (Printf.sprintf "Blitzsplit_eq: classes over %d relations, catalog has %d"
         (Equivalence.n equivalence) n);
  let classes = Array.of_list (Equivalence.classes equivalence) in
  let class_count = Array.length classes in
  if class_count > max_classes then
    invalid_arg (Printf.sprintf "Blitzsplit_eq: %d classes exceed the %d-bit mask" class_count max_classes);
  let inv_domain = Array.map (fun c -> 1.0 /. c.Equivalence.domain) classes in
  (* Per-relation class-presence mask. *)
  let rel_mask = Array.make n 0 in
  Array.iteri
    (fun ci c ->
      Relset.iter (fun r -> rel_mask.(r) <- rel_mask.(r) lor (1 lsl ci)) c.Equivalence.relations)
    classes;
  let ctr = match counters with Some c -> c | None -> Counters.create () in
  ctr.Counters.passes <- ctr.Counters.passes + 1;
  let tbl =
    match arena with Some a -> Arena.acquire a n | None -> Dp_table.create n
  in
  Split_loop.init_singletons tbl model catalog;
  let slots = 1 lsl n in
  (* Class-presence mask per subset; singletons from rel_mask. *)
  let mask = Array.make slots 0 in
  for i = 0 to n - 1 do
    mask.(1 lsl i) <- rel_mask.(i)
  done;
  let card = tbl.Dp_table.card and aux = tbl.Dp_table.aux in
  for s = 3 to slots - 1 do
    if s land (s - 1) <> 0 then begin
      (* compute_properties: presence-mask recurrence. *)
      let u = s land (-s) in
      let v = s lxor u in
      let mu = mask.(u) in
      let both = mu land mask.(v) in
      (* span(U, V): one 1/D factor per class present on both sides. *)
      let span = ref 1.0 in
      let m = ref both in
      while !m <> 0 do
        let bit = !m land (- !m) in
        span := !span *. inv_domain.(Relset.min_elt bit);
        m := !m lxor bit
      done;
      mask.(s) <- mu lor mask.(v);
      let c = card.(u) *. card.(v) *. !span in
      card.(s) <- c;
      aux.(s) <- model.Cost_model.aux c;
      Split_loop.find_best_split tbl model ctr ~threshold s
    end
  done;
  { table = tbl; counters = ctr; catalog; equivalence; model; threshold }

let full_set t = Dp_table.full_set t.table
let best_cost t = Dp_table.cost t.table (full_set t)
let feasible t = Float.is_finite (best_cost t)
let best_plan t = Dp_table.extract_plan t.table (full_set t)

let best_plan_exn t =
  match best_plan t with
  | Some plan -> plan
  | None -> failwith "Blitzsplit_eq.best_plan_exn: no plan under the given threshold"

let subplan t s = Dp_table.extract_plan t.table s
