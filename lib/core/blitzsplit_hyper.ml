module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Hypergraph = Blitz_graph.Hypergraph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

let max_hyperedges = 62

type t = {
  table : Dp_table.t;
  counters : Counters.t;
  catalog : Catalog.t;
  hypergraph : Hypergraph.t;
  model : Cost_model.t;
  threshold : float;
}

let optimize ?arena ?counters ?(threshold = Float.infinity) model catalog hypergraph =
  if threshold <= 0.0 then invalid_arg "Blitzsplit_hyper: threshold must be positive";
  let n = Catalog.n catalog in
  if Hypergraph.n hypergraph <> n then
    invalid_arg
      (Printf.sprintf "Blitzsplit_hyper: hypergraph over %d relations, catalog has %d"
         (Hypergraph.n hypergraph) n);
  let packed = Hypergraph.pack hypergraph in
  let edge_count = Hypergraph.packed_edge_count packed in
  if edge_count > max_hyperedges then
    invalid_arg
      (Printf.sprintf "Blitzsplit_hyper: %d hyperedges exceed the %d-bit mask" edge_count
         max_hyperedges);
  let member_mask = packed.Hypergraph.members in
  let sel = packed.Hypergraph.sel in
  let ctr = match counters with Some c -> c | None -> Counters.create () in
  ctr.Counters.passes <- ctr.Counters.passes + 1;
  let tbl =
    match arena with Some a -> Arena.acquire a n | None -> Dp_table.create n
  in
  Split_loop.init_singletons tbl model catalog;
  let slots = 1 lsl n in
  (* Bitmask of completed hyperedges per subset.  Singletons cannot
     complete any (hyperedges have >= 2 members). *)
  let completed = Array.make slots 0 in
  let card = tbl.Dp_table.card and aux = tbl.Dp_table.aux in
  for s = 3 to slots - 1 do
    if s land (s - 1) <> 0 then begin
      let u = s land (-s) in
      let v = s lxor u in
      let have = completed.(u) lor completed.(v) in
      (* Hyperedges completed exactly at this union. *)
      let span = ref 1.0 and now = ref have in
      for e = 0 to edge_count - 1 do
        if !now land (1 lsl e) = 0 && Relset.subset member_mask.(e) s then begin
          now := !now lor (1 lsl e);
          span := !span *. sel.(e)
        end
      done;
      completed.(s) <- !now;
      let c = card.(u) *. card.(v) *. !span in
      card.(s) <- c;
      aux.(s) <- model.Cost_model.aux c;
      Split_loop.find_best_split tbl model ctr ~threshold s
    end
  done;
  { table = tbl; counters = ctr; catalog; hypergraph; model; threshold }

let full_set t = Dp_table.full_set t.table
let best_cost t = Dp_table.cost t.table (full_set t)
let feasible t = Float.is_finite (best_cost t)
let best_plan t = Dp_table.extract_plan t.table (full_set t)

let best_plan_exn t =
  match best_plan t with
  | Some plan -> plan
  | None -> failwith "Blitzsplit_hyper.best_plan_exn: no plan under the given threshold"

let subplan t s = Dp_table.extract_plan t.table s
