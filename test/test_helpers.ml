(* Shared generators and checkers for the optimizer test suites. *)

module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Rng = Blitz_util.Rng

let float_approx ?(rel = 1e-9) () =
  Alcotest.testable
    (fun ppf x -> Format.fprintf ppf "%.12g" x)
    (fun a b -> Blitz_util.Float_more.approx_equal ~rel a b)

let check_float ?rel msg expected actual =
  Alcotest.check (float_approx ?rel ()) msg expected actual

(* The paper's running example: A, B, C, D with cardinalities 10, 20,
   30, 40 (Table 1) and the join graph of Figure 3 with edges AB, AC,
   BC, AD. *)
let abcd_catalog = Catalog.of_list [ ("A", 10.0); ("B", 20.0); ("C", 30.0); ("D", 40.0) ]

let figure3_graph ~sab ~sac ~sbc ~sad =
  Join_graph.of_edges ~n:4 [ (0, 1, sab); (0, 2, sac); (1, 2, sbc); (0, 3, sad) ]

(* Random problem generation for oracle comparisons. *)

let random_catalog rng ~n ~lo ~hi =
  Catalog.of_cards (Array.init n (fun _ -> Rng.log_uniform rng ~lo ~hi))

let random_graph rng ~n ~edge_prob ~sel_lo ~sel_hi =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.float rng 1.0 < edge_prob then
        edges := (i, j, Rng.log_uniform rng ~lo:sel_lo ~hi:sel_hi) :: !edges
    done
  done;
  Join_graph.of_edges ~n !edges

type problem = {
  catalog : Catalog.t;
  graph : Join_graph.t;
  model : Cost_model.t;
  seed : int;
}

let pp_problem ppf p =
  Format.fprintf ppf "seed=%d n=%d model=%s edges=%d" p.seed (Catalog.n p.catalog)
    p.model.Cost_model.name
    (Join_graph.edge_count p.graph)

(* A generator of complete random optimization problems with n in
   [2, max_n], random cardinalities, random topology density and any of
   the three paper cost models. *)
let problem_gen ~max_n =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Rng.create ~seed in
        let n = 2 + Rng.int rng (max_n - 1) in
        let catalog = random_catalog rng ~n ~lo:1.0 ~hi:1e4 in
        let edge_prob = Rng.float rng 1.0 in
        let graph = random_graph rng ~n ~edge_prob ~sel_lo:1e-4 ~sel_hi:1.0 in
        let model =
          match Rng.int rng 3 with
          | 0 -> Cost_model.naive
          | 1 -> Cost_model.sort_merge
          | _ -> Cost_model.kdnl
        in
        { catalog; graph; model; seed })
      (int_bound 1_000_000))

let problem_print p = Format.asprintf "%a" pp_problem p

(* BLITZ_TEST_DOMAINS=N adds N to the suites' domain axes, so CI can
   run the whole suite with the rank-parallel optimizer widened. *)
let env_domains =
  match Sys.getenv_opt "BLITZ_TEST_DOMAINS" with
  | None -> []
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 && d <= 128 -> [ d ]
    | _ -> failwith (Printf.sprintf "BLITZ_TEST_DOMAINS=%S is not a domain count in [1, 128]" s))

(* A pool of [num_domains] domains for the duration of [f]: a DP pass
   runs rank-parallel only on a pool, so the suites' domain axes are
   pools, one domain included. *)
let with_pool ~num_domains f =
  let pool = Blitz_parallel.Pool.create ~num_domains in
  Fun.protect ~finally:(fun () -> Blitz_parallel.Pool.shutdown pool) (fun () -> f pool)

(* Runtime domain slots.  OCaml caps a process at 128 live domains, the
   main one included; the pool-fallback tests hold slots with parked
   domains to run up against the cap. *)

(* Spawn parked domains until the runtime refuses one, and run [f] with
   the number spawned; they are released and joined when [f] returns or
   raises. *)
let with_held_domains f =
  let m = Mutex.create () and c = Condition.create () and released = ref false in
  let park () =
    Mutex.lock m;
    while not !released do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  let rec spawn held =
    match Domain.spawn park with d -> spawn (d :: held) | exception Failure _ -> held
  in
  let held = spawn [] in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock m;
      released := true;
      Condition.broadcast c;
      Mutex.unlock m;
      List.iter Domain.join held)
    (fun () -> f (List.length held))

(* How many more domains the runtime would spawn right now. *)
let free_domain_slots () = with_held_domains Fun.id
