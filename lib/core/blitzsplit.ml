module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

type t = {
  table : Dp_table.t;
  counters : Counters.t;
  catalog : Catalog.t;
  graph : Join_graph.t;
  model : Cost_model.t;
  threshold : float;
  multiway : Multiway.t option;
}

exception Interrupted

(* How often the cancellation probe fires: every [probe_mask + 1] subsets.
   Subsets near the top of the lattice carry split loops of up to [2^(n-1)]
   iterations each, so a 64-subset stride keeps the worst-case overshoot
   past a deadline small while the probe itself ([2^n / 64] clock reads)
   stays invisible next to the [O(3^n)] loop. *)
let probe_mask = 63

(* One timed region feeds both rate instruments: ns per subset (the
   historical unit) and ns per split iteration (the O(3^n) unit that
   `bench split` gates).  An escaping exception skips the observation. *)
let timed_pass (ctr : Counters.t) pass =
  if not (Blitz_obs.Metrics.enabled ()) then pass ()
  else begin
    let subs0 = ctr.subsets and iters0 = ctr.loop_iters in
    let t0 = Blitz_obs.Perf.now_s () in
    let result = pass () in
    let elapsed_s = Blitz_obs.Perf.now_s () -. t0 in
    Blitz_obs.Perf.observe_rate Blitz_obs.Perf.split_loop_ns_per_subset ~elapsed_s
      ~events:(ctr.subsets - subs0);
    Blitz_obs.Perf.observe_rate Blitz_obs.Perf.split_loop_ns_per_iter ~elapsed_s
      ~events:(ctr.loop_iters - iters0);
    result
  end

let run ~graph_opt ?arena ?counters ?(threshold = Float.infinity) ?interrupt
    ?(multiway = false) model catalog =
  if threshold <= 0.0 then invalid_arg "Blitzsplit: threshold must be positive";
  let n = Catalog.n catalog in
  let graph =
    match graph_opt with
    | Some g ->
      if Join_graph.n g <> n then
        invalid_arg
          (Printf.sprintf "Blitzsplit: graph over %d relations, catalog has %d" (Join_graph.n g) n);
      g
    | None -> Join_graph.no_predicates ~n
  in
  let ctr = match counters with Some c -> c | None -> Counters.create () in
  ctr.passes <- ctr.passes + 1;
  let with_pi_fan = Option.is_some graph_opt in
  let tbl =
    match arena with
    | Some a -> Arena.acquire a ~with_pi_fan n
    | None -> Dp_table.create ~with_pi_fan n
  in
  let mw =
    match graph_opt with
    | Some g when multiway -> Some (Multiway.create catalog g)
    | Some _ | None -> None
  in
  Split_loop.init_singletons tbl model catalog;
  let last = (1 lsl n) - 1 in
  let probe =
    match interrupt with
    | None -> fun _ -> ()
    | Some stop -> fun s -> if s land probe_mask = 0 && stop () then raise Interrupted
  in
  (* The completion bound holds for binary plans only: n-ary inputs are
     priced by cardinality, not by aux. *)
  let completion = Split_loop.completion_applies model ~threshold && Option.is_none mw in
  (* So does the live-operand index: the scan's left operands are
     binary inputs.  The numeric order finishes every subset below a
     power of two before reaching it, which is when the index closes
     its counts below it. *)
  let index =
    if Split_loop.scan_applies model ~threshold && Option.is_none mw then begin
      let idx = match arena with Some a -> Arena.index a | None -> Live_index.create () in
      Live_index.start idx ~n ~all_singletons:false;
      idx
    end
    else Live_index.off
  in
  let hub = Live_index.hub index in
  let[@inline] note s =
    if s < hub && Array.unsafe_get tbl.Dp_table.cost s < Float.infinity then
      Live_index.note index s
  in
  let dp_pass () =
    match graph_opt with
    | Some _ ->
      for s = 3 to last do
        if s land (s - 1) <> 0 then begin
          probe s;
          Split_loop.compute_properties_join tbl model graph s;
          Split_loop.find_best_split_with ~completion ~index tbl model ctr ~threshold s;
          (match mw with
          | Some m -> Multiway.consider m tbl ctr ~threshold s
          | None -> ());
          note s
        end
        else Live_index.seal index s
      done
    | None ->
      for s = 3 to last do
        if s land (s - 1) <> 0 then begin
          probe s;
          Split_loop.compute_properties_product tbl model s;
          Split_loop.find_best_split_with ~completion ~index tbl model ctr ~threshold s;
          note s
        end
        else Live_index.seal index s
      done
  in
  timed_pass ctr dp_pass;
  { table = tbl; counters = ctr; catalog; graph; model; threshold; multiway = mw }

let optimize_join ?arena ?counters ?threshold ?interrupt ?multiway model catalog graph =
  run ~graph_opt:(Some graph) ?arena ?counters ?threshold ?interrupt ?multiway model catalog

let optimize_product ?arena ?counters ?threshold ?interrupt model catalog =
  run ~graph_opt:None ?arena ?counters ?threshold ?interrupt model catalog

let full_set t = Dp_table.full_set t.table

let best_cost t = Dp_table.cost t.table (full_set t)

let feasible t = Float.is_finite (best_cost t)

let best_plan t = Multiway.extract_plan ?multiway:t.multiway t.table (full_set t)

let best_plan_exn t =
  match best_plan t with
  | Some plan -> plan
  | None -> failwith "Blitzsplit.best_plan_exn: no plan under the given threshold"

let subplan t s = Multiway.extract_plan ?multiway:t.multiway t.table s
