(* Differential bit-identity for the monomorphized split kernels.

   The specialized per-model loop bodies claim EXACT equivalence with
   the ordered kernel retained as [Split_reference], the paper's loop
   over all 2^|s| - 2 ordered splits: not approximately-equal costs but
   identical IEEE bit patterns and identical best_lhs links — the float
   expressions were transplanted associativity-and-all, and this suite
   is what holds that claim down.  The inlined bodies visit each
   unordered split once, so without a threshold their loop_iters is
   exactly half the reference's and their operand-sum and kappa'' counts
   can only be lower; the closure fallback body keeps the ordered loop,
   so all its counters match.  At a finite threshold the three paper
   models' bodies scan the live-operand index instead of walking
   wherever its candidates are fewer than the walk's splits
   ([Live_index.shape]); there loop_iters must equal the count this
   suite derives from the reference table under that rule, and the
   operand-sum, kappa'' and improvement counts, which the scan's order
   changes, must agree between the pass on the calling domain and every
   width.
   subsets, threshold_skips and infeasible always match the reference.
   Random problems sweep topology density, stars whose hub is the last
   and the first relation, a tie-heavy family (cardinalities and
   selectivities that are small powers of two, so costs are exact and
   splits of different shapes tie), all three paper models, an Opaque min-of combination
   (the closure fallback body), an Opaque model with kappa'' = 0 (the
   zero body under a closure kappa') and an Opaque model with an
   asymmetric kappa'' (the fallback body with its operands told apart),
   the production threshold ([Registry.upper_bound]) beside 0.5 and 2
   times the optimum and none (the skip and infeasible paths), against
   the pass on the calling domain and on pools of 1, 2 and 4 domains.
   Under kappa_sm at a finite threshold the driver charges
   each subset its completion term ([Split_loop.completion_threshold]);
   the reference pass applies the same per-subset threshold, so this
   suite checks the kernels, and the driver-level property in
   test_threshold checks the bound itself. *)

open Test_helpers
module Blitzsplit = Blitz_core.Blitzsplit
module Dp_table = Blitz_core.Dp_table
module Split_loop = Blitz_core.Split_loop
module Counters = Blitz_core.Counters
module Rng = Blitz_util.Rng
module Registry = Blitz_engine.Registry

type family = Random | Star_hub_last | Star_hub_first | Ties

type bound =
  | Unbounded
  | Times of float
      (* f * the unconstrained optimum, exercising skips (f < 1 makes
         the run infeasible). *)
  | Upper_bound  (* the exact tier's seed, [Registry.upper_bound] *)

type kernel_problem = {
  catalog : Catalog.t;
  graph : Join_graph.t;
  model : Cost_model.t;
  family : family;
  bound : bound;
  seed : int;
}

let family_name = function
  | Random -> "random"
  | Star_hub_last -> "star, hub last"
  | Star_hub_first -> "star, hub first"
  | Ties -> "ties"

let pp_kernel_problem ppf p =
  Format.fprintf ppf "seed=%d n=%d family=%s model=%s edges=%d threshold=%s" p.seed
    (Catalog.n p.catalog) (family_name p.family) p.model.Cost_model.name
    (Join_graph.edge_count p.graph)
    (match p.bound with
    | Unbounded -> "inf"
    | Times f -> Printf.sprintf "%g x optimum" f
    | Upper_bound -> "upper bound")

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

(* A star over [n] relations with its hub at relation [hub]. *)
let star rng ~n ~hub =
  Join_graph.of_edges ~n
    (List.filter_map
       (fun i -> if i = hub then None else Some (i, hub, Rng.log_uniform rng ~lo:1e-4 ~hi:1.0))
       (List.init n Fun.id))

let kernel_problem_gen ~max_n =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Rng.create ~seed in
        let family =
          match Rng.int rng 5 with
          | 0 | 1 -> Random
          | 2 -> Star_hub_last
          | 3 -> Star_hub_first
          | _ -> Ties
        in
        (* Stars run one relation wider: their hub subsets are where
           the scan replaces the longest walks. *)
        let n =
          match family with
          | Star_hub_last | Star_hub_first -> 3 + Rng.int rng (max_n - 1)
          | Random | Ties -> 2 + Rng.int rng (max_n - 1)
        in
        let catalog =
          match family with
          | Ties -> Catalog.of_cards (Array.init n (fun _ -> Float.ldexp 1.0 (Rng.int rng 4)))
          | Random | Star_hub_last | Star_hub_first -> random_catalog rng ~n ~lo:1.0 ~hi:1e4
        in
        let graph =
          match family with
          | Random -> random_graph rng ~n ~edge_prob:(Rng.float rng 1.0) ~sel_lo:1e-4 ~sel_hi:1.0
          | Star_hub_last -> star rng ~n ~hub:(n - 1)
          | Star_hub_first -> star rng ~n ~hub:0
          | Ties ->
            (* Powers of two keep every cardinality and cost exact, so
               splits of different shapes tie often, as they do in the
               CLI's variability-0 stars.  A hub joins every relation. *)
            let edge_prob = Rng.float rng 1.0 in
            let hub = if Rng.bool rng then 0 else n - 1 in
            Join_graph.of_edges ~n
              (List.concat_map
                 (fun i ->
                   List.filter_map
                     (fun j ->
                       if i = hub || j = hub || Rng.float rng 1.0 < edge_prob then
                         Some (i, j, Float.ldexp 1.0 (-Rng.int rng 4))
                       else None)
                     (List.init (n - i - 1) (fun d -> i + 1 + d)))
                 (List.init n Fun.id))
        in
        let model =
          match Rng.int rng 6 with
          | 0 -> Cost_model.naive
          | 1 -> Cost_model.sort_merge
          | 2 -> Cost_model.kdnl
          | 3 -> Cost_model.min_of Cost_model.sort_merge Cost_model.kdnl
          | 4 -> { Cost_model.naive with name = "opaque-k0"; kind = Opaque }
          | _ -> asymmetric
        in
        let bound =
          match Rng.int rng 4 with
          | 0 -> Unbounded
          | 1 -> Times 0.5
          | 2 -> Times 2.0
          | _ -> Upper_bound
        in
        { catalog; graph; model; family; bound; seed })
      (int_bound 1_000_000))

(* One full DP pass with the Reference kernel in increasing subset
   order, Figure 1's loop: the ordered ground truth.  A kappa_sm pass at
   a finite threshold gives each subset the threshold the driver gives
   it, through the same function, so every entry still compares. *)
type reference = {
  table : Dp_table.t;
  counters : Counters.t;
  priced : bool array;  (* subsets the reference ran a split loop for *)
}

let reference_pass model catalog graph ~threshold =
  let n = Catalog.n catalog in
  let tbl = Dp_table.create ~with_pi_fan:true n in
  let ctr = Counters.create () in
  let priced = Array.make (1 lsl n) false in
  let completion = Split_loop.completion_applies model ~threshold in
  Split_loop.init_singletons ~graph:(Some graph) tbl model catalog;
  for s = 3 to (1 lsl n) - 1 do
    if s land (s - 1) <> 0 then begin
      Split_loop.compute_properties_join tbl model s;
      let threshold =
        if completion then Split_loop.completion_threshold tbl ~threshold s else threshold
      in
      let skips = ctr.Counters.threshold_skips in
      Split_reference.find_best_split tbl model ctr ~threshold s;
      priced.(s) <- ctr.Counters.threshold_skips = skips
    end
  done;
  { table = tbl; counters = ctr; priced }

let bits = Int64.bits_of_float

let rec popcount s = if s = 0 then 0 else 1 + popcount (s land (s - 1))

let rec top s = if s <= 1 then 0 else 1 + top (s lsr 1)

(* The split iterations of a seeded pass under the documented rule,
   from the reference table.  A subset s of rank k that runs a split
   loop, with b = top (s \ top s), has as candidates the live subsets
   free of relation n - 1 of ranks 1 .. k-1 below 2^(b+1).  When they
   are fewer than its walk's 2^(k-1) - 1 splits it scans them and prices
   its live left operands, the live nonempty subsets of s \ top s;
   otherwise it walks. *)
let seeded_loop_iters (r : reference) =
  let tbl = r.table in
  let n = tbl.Dp_table.n in
  let live l = tbl.Dp_table.cost.(l) < Float.infinity in
  (* candidates.(b).(k): live candidates below 2^(b+1) of ranks below k. *)
  let candidates = Array.make_matrix n (n + 1) 0 in
  for l = 1 to (1 lsl (n - 1)) - 1 do
    if live l then
      for b = top l to n - 2 do
        for k = popcount l + 1 to n do
          candidates.(b).(k) <- candidates.(b).(k) + 1
        done
      done
  done;
  let iters = ref 0 in
  Array.iteri
    (fun s priced ->
      if priced then begin
        let k = popcount s in
        let rest = s lxor (1 lsl top s) in
        let walk = (1 lsl (k - 1)) - 1 in
        if candidates.(top rest).(k) < walk then begin
          (* The nonempty subsets of [rest], by the successor trick. *)
          let l = ref (rest land (-rest)) in
          while !l <> 0 do
            if live !l then incr iters;
            l := rest land (!l - rest)
          done
        end
        else iters := !iters + walk
      end)
    r.priced;
  !iters

let scanning (p : kernel_problem) ~threshold =
  Float.is_finite threshold
  && match p.model.Cost_model.kind with Cost_model.Opaque -> false | _ -> true

let check_against ~what ~threshold (p : kernel_problem) (r : reference) (tbl : Dp_table.t)
    (ctr : Counters.t) =
  let reft = r.table and refc = r.counters in
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
  counter "threshold_skips" refc.Counters.threshold_skips ctr.Counters.threshold_skips;
  counter "infeasible" refc.Counters.infeasible ctr.Counters.infeasible;
  if scanning p ~threshold then
    counter "loop_iters (walk or live candidates, per subset)" (seeded_loop_iters r)
      ctr.Counters.loop_iters
  else if Split_loop.variant p.model = "general" then begin
    counter "improvements" refc.Counters.improvements ctr.Counters.improvements;
    counter "loop_iters" refc.Counters.loop_iters ctr.Counters.loop_iters;
    counter "operand_sums" refc.Counters.operand_sums ctr.Counters.operand_sums;
    counter "dprime_evals" refc.Counters.dprime_evals ctr.Counters.dprime_evals
  end
  else begin
    counter "improvements" refc.Counters.improvements ctr.Counters.improvements;
    if 2 * ctr.Counters.loop_iters <> refc.Counters.loop_iters then
      fail "loop_iters %d is not half the reference's %d" ctr.Counters.loop_iters
        refc.Counters.loop_iters;
    at_most "operand_sums" refc.Counters.operand_sums ctr.Counters.operand_sums;
    at_most "dprime_evals" refc.Counters.dprime_evals ctr.Counters.dprime_evals
  end

(* The split counters the scan's order changes: at a finite threshold
   they must agree across drivers and widths instead of with the
   reference. *)
let scan_counters (c : Counters.t) =
  (c.Counters.improvements, c.Counters.operand_sums, c.Counters.dprime_evals)

let prop_kernels_bit_identical =
  QCheck2.Test.make ~count:200
    ~name:"specialized kernels bit-identical to Reference (drivers x domains x thresholds)"
    ~print:(fun p -> Format.asprintf "%a" pp_kernel_problem p)
    (kernel_problem_gen ~max_n:8)
    (fun p ->
      let threshold =
        match p.bound with
        | Unbounded -> Float.infinity
        | Times f ->
          let unconstrained = reference_pass p.model p.catalog p.graph ~threshold:Float.infinity in
          let best = unconstrained.table.Dp_table.cost.(Dp_table.size unconstrained.table - 1) in
          Float.max (f *. best) Float.min_float
        | Upper_bound -> (
          let problem = Registry.problem ~graph:p.graph p.catalog in
          match Registry.upper_bound (Registry.heuristics p.model problem) with
          | Some b -> b.Registry.value
          | None -> Float.infinity)
      in
      let r = reference_pass p.model p.catalog p.graph ~threshold in
      let seq = Blitzsplit.optimize_join ~threshold p.model p.catalog p.graph in
      check_against ~what:"inline" ~threshold p r seq.Blitzsplit.table seq.Blitzsplit.counters;
      List.iter
        (fun d ->
          let par =
            with_pool ~num_domains:d (fun pool ->
                Blitzsplit.optimize_join ~pool ~threshold p.model p.catalog p.graph)
          in
          let what = Printf.sprintf "pool d=%d" d in
          check_against ~what ~threshold p r par.Blitzsplit.table par.Blitzsplit.counters;
          if
            scanning p ~threshold
            && scan_counters par.Blitzsplit.counters <> scan_counters seq.Blitzsplit.counters
          then
            QCheck2.Test.fail_reportf
              "%s: improvements, operand sums or kappa'' evaluations differ from the inline \
               pass's"
              what)
        [ 1; 2; 4 ];
      true)

(* A seeded kappa_0 pass whose subset {0, 1, 2, 3, 4} scans and ties:
   its minimal splits include left operands of two ranks, and the
   numerically smallest of them is not of the lowest rank, so the scan
   (ranks in order) meets another minimal split first.  Only the
   lexicographic (cost, lhs) rule keeps the walk's split here. *)
let test_tie_across_ranks () =
  let catalog = Catalog.of_cards [| 2.0; 8.0; 4.0; 4.0; 4.0 |] in
  let graph =
    Join_graph.of_edges ~n:5
      [ (0, 1, 0.25); (0, 4, 1.0); (1, 2, 0.125); (1, 4, 1.0); (2, 4, 0.5); (3, 4, 0.25) ]
  in
  let model = Cost_model.naive in
  let optimum = Blitzsplit.best_cost (Blitzsplit.optimize_join model catalog graph) in
  List.iter
    (fun f ->
      let threshold = f *. optimum in
      let p =
        { catalog; graph; model; family = Ties; bound = Times f; seed = 0 }
      in
      let r = reference_pass model catalog graph ~threshold in
      let seq = Blitzsplit.optimize_join ~threshold model catalog graph in
      let check what (o : Blitzsplit.t) =
        match check_against ~what ~threshold p r o.Blitzsplit.table o.Blitzsplit.counters with
        | () -> ()
        | exception QCheck2.Test.Test_fail (_, msgs) -> Alcotest.fail (String.concat "; " msgs)
      in
      check "inline" seq;
      List.iter
        (fun d ->
          check (Printf.sprintf "pool d=%d" d)
            (with_pool ~num_domains:d (fun pool ->
                 Blitzsplit.optimize_join ~pool ~threshold model catalog graph)))
        [ 1; 2 ])
    [ 1.0 +. 1e-9; 1.5; 2.0 ]

let test_variant_names () =
  Alcotest.(check string) "naive" "zero" (Split_loop.variant Cost_model.naive);
  Alcotest.(check string) "sort-merge" "sum-aux" (Split_loop.variant Cost_model.sort_merge);
  Alcotest.(check string) "dnl" "dnl" (Split_loop.variant Cost_model.kdnl);
  Alcotest.(check string) "min-of" "general"
    (Split_loop.variant (Cost_model.min_of Cost_model.naive Cost_model.kdnl));
  Alcotest.(check string) "opaque, kappa'' = 0" "zero"
    (Split_loop.variant { Cost_model.naive with kind = Opaque })

(* Neither the property pass nor the split loop allocates per subset
   under the paper models, so a warm [optimize_join] through an arena
   allocates the same minor words at every n: its result record and the
   per-call bookkeeping, nothing that grows with the lattice.  The
   property pass computes kappa_sm's aux inline; the memo must hold the
   bits the model's own [aux] closure gives.  kappa_0 and kappa_dnl read
   [card] where a kernel would read their identity aux, so their passes
   must leave a NaN-filled [aux] column as they found it.  A kappa_sm
   pass at a finite threshold computes each subset's completion term
   inside the kernel, so it must not allocate per subset either: a float
   computed per subset and passed across a call would be boxed every
   time. *)
let test_warm_dp_allocation_flat () =
  let arena = Blitz_core.Arena.create () and ctr = Counters.create () in
  let words ?(topology = Topology.Clique) ?threshold_factor model n =
    let spec =
      Blitz_workload.Workload.spec ~n ~topology ~model ~mean_card:100.0 ~variability:(1.0 /. 3.0)
    in
    let catalog, graph = Blitz_workload.Workload.problem spec in
    let run ?threshold () =
      Blitzsplit.optimize_join ~arena ~counters:ctr ?threshold model catalog graph
    in
    let threshold =
      Option.map (fun f -> f *. Blitzsplit.best_cost (run ())) threshold_factor
    in
    let warm = (run ?threshold ()).Blitzsplit.table.Dp_table.aux in
    Array.fill warm 0 (Array.length warm) Float.nan;
    Counters.reset ctr;
    let w0 = Gc.minor_words () in
    let r = run ?threshold () in
    let words = Gc.minor_words () -. w0 in
    let tbl = r.Blitzsplit.table in
    let bits = Int64.bits_of_float in
    for s = 1 to Dp_table.size tbl - 1 do
      match model.Cost_model.kind with
      | Cost_model.Paper_sort_merge | Cost_model.Opaque ->
        if bits tbl.Dp_table.aux.(s) <> bits (model.Cost_model.aux tbl.Dp_table.card.(s)) then
          Alcotest.failf "%s n=%d: aux memo of subset %d is not model.aux" model.name n s
      | Cost_model.Paper_naive | Cost_model.Paper_dnl _ ->
        if bits tbl.Dp_table.aux.(s) <> bits Float.nan then
          Alcotest.failf "%s n=%d: the pass wrote the aux slot of subset %d" model.name n s
    done;
    if threshold <> None && (ctr.Counters.threshold_skips = 0 || not (Blitzsplit.feasible r)) then
      Alcotest.failf "%s n=%d: the thresholded pass skipped nothing or found no plan" model.name n;
    (* A seeded star pass scans: its hub subsets price far fewer splits
       than the walk would. *)
    if threshold <> None && topology = Topology.Star
       && 4 * ctr.Counters.loop_iters >= Counters.exact_loop_iters n
    then Alcotest.failf "%s n=%d: the seeded star pass scanned nothing" model.name n;
    words
  in
  List.iter
    (fun model ->
      let w14 = words model 14 and w10 = words model 10 in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: minor words at n = 10 and n = 14" model.Cost_model.name)
        w10 w14)
    Cost_model.all_paper;
  let sm = Cost_model.sort_merge in
  let w14 = words ~threshold_factor:2.0 sm 14 and w10 = words ~threshold_factor:2.0 sm 10 in
  Alcotest.(check (float 0.0)) "ksm at twice the optimum: minor words at n = 10 and n = 14" w10 w14;
  (* Seeded star passes scan the live-operand index, which the arena
     pools: nothing per pass grows with n either. *)
  List.iter
    (fun model ->
      let star = words ~topology:Topology.Star ~threshold_factor:1.5 model in
      let w14 = star 14 and w10 = star 10 in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "seeded %s star: minor words at n = 10 and n = 14" model.Cost_model.name)
        w10 w14)
    [ Cost_model.naive; Cost_model.sort_merge ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_kernels_bit_identical;
    Alcotest.test_case "scan keeps the walk's split at ties across ranks" `Quick
      test_tie_across_ranks;
    Alcotest.test_case "kernel variant names" `Quick test_variant_names;
    Alcotest.test_case "warm DP allocation does not grow with n" `Quick
      test_warm_dp_allocation_flat;
  ]
