module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model

type spec = {
  n : int;
  topology : Topology.t;
  model : Cost_model.t;
  mean_card : float;
  variability : float;
}

let spec ~n ~topology ~model ~mean_card ~variability =
  if n < 2 then invalid_arg "Workload.spec: need at least two relations";
  if (not (Float.is_finite mean_card)) || mean_card <= 0.0 then
    invalid_arg "Workload.spec: mean_card must be positive";
  if variability < 0.0 || variability > 1.0 then
    invalid_arg "Workload.spec: variability must lie in [0, 1]";
  Topology.check topology ~n;
  { n; topology; model; mean_card; variability }

let catalog t =
  let mu = t.mean_card and v = t.variability in
  (* log-linear ladder centered (in log space) on mu:
     exponent(i) = 1 - v + 2vi/(n-1). *)
  let exponent i = 1.0 -. v +. (2.0 *. v *. float_of_int i /. float_of_int (t.n - 1)) in
  Catalog.of_cards (Array.init t.n (fun i -> mu ** exponent i))

let problem t =
  let cat = catalog t in
  let edges = Topology.edge_list t.topology ~n:t.n in
  (cat, Topology.assign_selectivities cat edges ~result_card:t.mean_card)

let describe t =
  Printf.sprintf "n=%d %s %s mu=%g v=%.2f" t.n (Topology.name t.topology)
    t.model.Cost_model.name t.mean_card t.variability

let mean_card_axis ?(count = 10) () =
  if count < 1 then invalid_arg "Workload.mean_card_axis: count must be positive";
  Array.init count (fun k -> 10.0 ** (2.0 *. float_of_int k /. 3.0))

let variability_axis ?(count = 4) () =
  if count < 2 then invalid_arg "Workload.variability_axis: count must be at least 2";
  Array.init count (fun k -> float_of_int k /. float_of_int (count - 1))

let grid ~n ~models ~topologies ~mean_cards ~variabilities =
  List.concat_map
    (fun model ->
      List.concat_map
        (fun topology ->
          Array.to_list mean_cards
          |> List.concat_map (fun mean_card ->
                 Array.to_list variabilities
                 |> List.map (fun variability ->
                        spec ~n ~topology ~model ~mean_card ~variability)))
        topologies)
    models
