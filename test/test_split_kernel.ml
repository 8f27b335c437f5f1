(* Differential bit-identity for the monomorphized split kernels.

   The specialized per-model loop bodies claim EXACT equivalence with
   the ordered kernel retained as [Split_reference], the paper's loop
   over all 2^|s| - 2 ordered splits: not approximately-equal costs but
   identical IEEE bit patterns and identical best_lhs links — the float
   expressions were transplanted associativity-and-all, and this suite
   is what holds that claim down.  The inlined bodies visit each
   unordered split once, so their loop_iters is exactly half the
   reference's and their operand-sum and kappa'' counts can only be
   lower; the closure fallback body keeps the ordered loop, so all its
   counters match; every other counter is identical for all bodies.
   Random problems sweep topology density, all three paper models, an
   Opaque min-of combination (the closure fallback body), an Opaque
   model with kappa'' = 0 (the zero body under a closure kappa') and an
   Opaque model with an asymmetric kappa'' (the fallback body with its
   operands told apart), finite and infinite thresholds (the skip and
   infeasible paths), against the sequential driver and the
   rank-parallel driver at 1, 2 and 4 domains. *)

open Test_helpers
module Blitzsplit = Blitz_core.Blitzsplit
module Parallel_blitzsplit = Blitz_parallel.Parallel_blitzsplit
module Dp_table = Blitz_core.Dp_table
module Split_loop = Blitz_core.Split_loop
module Counters = Blitz_core.Counters
module Rng = Blitz_util.Rng

type kernel_problem = {
  catalog : Catalog.t;
  graph : Join_graph.t;
  model : Cost_model.t;
  threshold_factor : float option;
      (* None: unconstrained; Some f: threshold = f * unconstrained
         optimum, exercising skips (f < 1 makes the run infeasible). *)
  seed : int;
}

let pp_kernel_problem ppf p =
  Format.fprintf ppf "seed=%d n=%d model=%s edges=%d threshold_factor=%s" p.seed
    (Catalog.n p.catalog) p.model.Cost_model.name
    (Join_graph.edge_count p.graph)
    (match p.threshold_factor with None -> "inf" | Some f -> string_of_float f)

(* kappa'' = lcard + 2 rcard: the one model here whose kappa'' depends
   on operand order, so the one that tells the general body's two
   operands apart. *)
let asymmetric =
  {
    Cost_model.name = "asym";
    aux = Fun.id;
    k_prime = (fun _ -> 0.0);
    k_dprime = (fun ~out:_ ~lcard ~rcard ~laux:_ ~raux:_ -> lcard +. (2.0 *. rcard));
    dprime_is_zero = false;
    kind = Opaque;
  }

let kernel_problem_gen ~max_n =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Rng.create ~seed in
        let n = 2 + Rng.int rng (max_n - 1) in
        let catalog = random_catalog rng ~n ~lo:1.0 ~hi:1e4 in
        let edge_prob = Rng.float rng 1.0 in
        let graph = random_graph rng ~n ~edge_prob ~sel_lo:1e-4 ~sel_hi:1.0 in
        let model =
          match Rng.int rng 6 with
          | 0 -> Cost_model.naive
          | 1 -> Cost_model.sort_merge
          | 2 -> Cost_model.kdnl
          | 3 -> Cost_model.min_of Cost_model.sort_merge Cost_model.kdnl
          | 4 -> { Cost_model.naive with name = "opaque-k0"; kind = Opaque }
          | _ -> asymmetric
        in
        let threshold_factor =
          match Rng.int rng 3 with 0 -> None | 1 -> Some 0.5 | _ -> Some 2.0
        in
        { catalog; graph; model; threshold_factor; seed })
      (int_bound 1_000_000))

(* One full DP pass with the Reference kernel: the ordered ground
   truth, same enumeration order as the sequential driver. *)
let reference_pass model catalog graph ~threshold =
  let n = Catalog.n catalog in
  let tbl = Dp_table.create ~with_pi_fan:true n in
  let ctr = Counters.create () in
  Split_loop.init_singletons tbl model catalog;
  for s = 3 to (1 lsl n) - 1 do
    if s land (s - 1) <> 0 then begin
      Split_loop.compute_properties_join tbl model graph s;
      Split_reference.find_best_split tbl model ctr ~threshold s
    end
  done;
  (tbl, ctr)

let bits = Int64.bits_of_float

let check_against ~what (p : kernel_problem) (reft : Dp_table.t) (refc : Counters.t)
    (tbl : Dp_table.t) (ctr : Counters.t) =
  let fail fmt = QCheck2.Test.fail_reportf ("%s: " ^^ fmt) what in
  for s = 1 to Dp_table.size reft - 1 do
    if bits reft.Dp_table.cost.(s) <> bits tbl.Dp_table.cost.(s) then
      fail "cost bits diverged at subset %d: %.17g vs %.17g" s reft.Dp_table.cost.(s)
        tbl.Dp_table.cost.(s);
    if reft.Dp_table.best_lhs.(s) <> tbl.Dp_table.best_lhs.(s) then
      fail "best_lhs diverged at subset %d: %d vs %d" s reft.Dp_table.best_lhs.(s)
        tbl.Dp_table.best_lhs.(s)
  done;
  let counter name a b = if a <> b then fail "counter %s diverged: %d vs %d" name a b in
  let at_most name a b = if b > a then fail "counter %s exceeds the reference: %d > %d" name b a in
  counter "subsets" refc.Counters.subsets ctr.Counters.subsets;
  counter "improvements" refc.Counters.improvements ctr.Counters.improvements;
  counter "threshold_skips" refc.Counters.threshold_skips ctr.Counters.threshold_skips;
  counter "infeasible" refc.Counters.infeasible ctr.Counters.infeasible;
  if Split_loop.variant p.model = "general" then begin
    counter "loop_iters" refc.Counters.loop_iters ctr.Counters.loop_iters;
    counter "operand_sums" refc.Counters.operand_sums ctr.Counters.operand_sums;
    counter "dprime_evals" refc.Counters.dprime_evals ctr.Counters.dprime_evals
  end
  else begin
    if 2 * ctr.Counters.loop_iters <> refc.Counters.loop_iters then
      fail "loop_iters %d is not half the reference's %d" ctr.Counters.loop_iters
        refc.Counters.loop_iters;
    at_most "operand_sums" refc.Counters.operand_sums ctr.Counters.operand_sums;
    at_most "dprime_evals" refc.Counters.dprime_evals ctr.Counters.dprime_evals
  end

let prop_kernels_bit_identical =
  QCheck2.Test.make ~count:150
    ~name:"specialized kernels bit-identical to Reference (drivers x domains x thresholds)"
    ~print:(fun p -> Format.asprintf "%a" pp_kernel_problem p)
    (kernel_problem_gen ~max_n:8)
    (fun p ->
      let threshold =
        match p.threshold_factor with
        | None -> Float.infinity
        | Some f ->
          let unconstrained, _ =
            reference_pass p.model p.catalog p.graph ~threshold:Float.infinity
          in
          let best = unconstrained.Dp_table.cost.(Dp_table.size unconstrained - 1) in
          Float.max (f *. best) Float.min_float
      in
      let reft, refc = reference_pass p.model p.catalog p.graph ~threshold in
      let seq = Blitzsplit.optimize_join ~threshold p.model p.catalog p.graph in
      check_against ~what:"sequential" p reft refc seq.Blitzsplit.table
        seq.Blitzsplit.counters;
      List.iter
        (fun d ->
          let par =
            Parallel_blitzsplit.optimize_join ~num_domains:d ~min_parallel_n:2 ~threshold
              p.model p.catalog p.graph
          in
          check_against
            ~what:(Printf.sprintf "parallel d=%d" d)
            p reft refc par.Blitzsplit.table par.Blitzsplit.counters)
        [ 1; 2; 4 ];
      true)

let test_variant_names () =
  Alcotest.(check string) "naive" "zero" (Split_loop.variant Cost_model.naive);
  Alcotest.(check string) "sort-merge" "sum-aux" (Split_loop.variant Cost_model.sort_merge);
  Alcotest.(check string) "dnl" "dnl" (Split_loop.variant Cost_model.kdnl);
  Alcotest.(check string) "min-of" "general"
    (Split_loop.variant (Cost_model.min_of Cost_model.naive Cost_model.kdnl));
  Alcotest.(check string) "opaque, kappa'' = 0" "zero"
    (Split_loop.variant { Cost_model.naive with kind = Opaque })

let suite =
  [
    QCheck_alcotest.to_alcotest prop_kernels_bit_identical;
    Alcotest.test_case "kernel variant names" `Quick test_variant_names;
  ]
