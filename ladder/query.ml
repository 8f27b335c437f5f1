(* The ladder's workloads as seeded query streams.

   Every query is one of the paper's generated problems (appendix
   cardinalities and selectivities, Section 6.1 grid axes), so the wire
   request carries only its spec and the bench can rebuild the exact
   catalog and graph to check an answer.  The seed is an argument of
   every stream; the program under test only ever sees the generated
   requests. *)

module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Workload = Blitz_workload.Workload
module Rng = Blitz_util.Rng

(* BLITZ_BENCH_FAST shrinks every size to a smoke run (the runtest rule). *)
let fast = Sys.getenv_opt "BLITZ_BENCH_FAST" <> None

type t = {
  id : int;  (** Equal ids mean equal queries within one run. *)
  n : int;
  topology : Topology.t;
  model : Cost_model.t;  (** The serving model; not on the wire. *)
  mean_card : float;
  variability : float;
}

let spec q =
  Workload.spec ~n:q.n ~topology:q.topology ~model:q.model ~mean_card:q.mean_card
    ~variability:q.variability

let problem q = Workload.problem (spec q)

(* %.17g round-trips the float exactly, so the server builds the same
   catalog the bench checks against. *)
let request ~id q =
  Printf.sprintf
    {|{"blitz":1,"id":%d,"method":"optimize","params":{"n":%d,"topology":"%s",|}
    id q.n (Topology.name q.topology)
  ^ Printf.sprintf {|"mean_card":%.17g,"variability":%.17g}}|} q.mean_card q.variability

let models = [| Cost_model.naive; Cost_model.sort_merge; Cost_model.kdnl |]

let model_index (m : Cost_model.t) =
  let rec go i =
    if i >= Array.length models || models.(i).Cost_model.name = m.Cost_model.name then i
    else go (i + 1)
  in
  go 0

let topologies = [| Topology.Chain; Topology.Star; Topology.Cycle_plus 2; Topology.Clique |]

(* Queries of one class cost the same to optimize. *)
let class_key q = Printf.sprintf "%s/%s/n%d" (Topology.name q.topology) q.model.Cost_model.name q.n

let rng ~seed salt = Rng.create ~seed:(Hashtbl.hash (seed, salt))

(* Rank-skewed draw, P(rank r) ~ 1/(r+1)^s, by binary search on the CDF. *)
let zipf ~s ~size =
  let w = Array.init size (fun r -> 1. /. Float.pow (float_of_int (r + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  fun rng ->
    let u = Rng.float rng 1. in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if u < cdf.(mid) then go lo mid else go (mid + 1) hi
    in
    go 0 (size - 1)

(* ---- dp-cold: every request distinct, one stream per cost model ---- *)

let cold_base_n = if fast then 8 else 12

(* One query per size, disjoint from the timed stream (mean_card below
   100): set-up grows each server's table to n = 14 without warming the
   cache for any timed request. *)
let dp_cold_warm =
  Array.init 3 (fun i ->
      {
        id = -1 - i;
        n = cold_base_n + i;
        topology = Topology.Chain;
        model = Cost_model.kdnl;
        mean_card = 50. +. float_of_int i;
        variability = 1. /. 3.;
      })

let dp_cold ~seed ~phase =
  let model = models.(phase) in
  let rng = rng ~seed ("dp-cold", phase) in
  let k = ref 0 in
  fun () ->
    let i = !k in
    incr k;
    {
      id = (phase * 1_000_000) + i;
      n = cold_base_n + (i mod 3);
      topology = topologies.(i / 3 mod 4);
      model;
      mean_card = 100. +. float_of_int i +. Rng.float rng 1.;
      variability = 1. /. 3.;
    }

(* ---- dp-large: four n = 18 cells, the same four queries every round ---- *)

let large_n = if fast then 11 else 18

let dp_large_cells ~seed =
  let rng = rng ~seed "dp-large" in
  [|
    (Topology.Chain, Cost_model.kdnl);
    (Topology.Clique, Cost_model.naive);
    (Topology.Star, Cost_model.sort_merge);
    (Topology.Cycle_plus 2, Cost_model.kdnl);
  |]
  |> Array.mapi (fun id (topology, model) ->
         {
           id;
           n = large_n;
           topology;
           model;
           mean_card = 100. +. Rng.float rng 100.;
           variability = 1. /. 3.;
         })

(* ---- hot-repeat: zipfian repeats over a small warmed pool ---- *)

let hot_pool =
  let size = if fast then 16 else 32 in
  Array.init size (fun i ->
      {
        id = i;
        n = (if fast then 8 else 10);
        topology = topologies.(i mod 4);
        model = Cost_model.kdnl;
        mean_card = 10. *. float_of_int (i + 1);
        variability = 0.;
      })

let hot_repeat ~seed =
  let rng = rng ~seed "hot-repeat" in
  let draw = zipf ~s:1.1 ~size:(Array.length hot_pool) in
  fun () -> hot_pool.(draw rng)
