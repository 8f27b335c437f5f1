(* The pre-refactor split kernel, kept verbatim for differential testing
   and as the baseline the `bench split` speedup gate measures against:
   one generic loop body for every cost model, kappa' and kappa'' both
   through the model's closures.  Same contract as
   [Blitz_core.Split_loop.find_best_split]. *)

module Cost_model = Blitz_cost.Cost_model
module Counters = Blitz_core.Counters
module Dp_table = Blitz_core.Dp_table

let find_best_split (tbl : Dp_table.t) (model : Cost_model.t) (ctr : Counters.t) ~threshold s =
  let cost = tbl.cost and card = tbl.card and aux = tbl.aux in
  ctr.subsets <- ctr.subsets + 1;
  let out = Array.unsafe_get card s in
  let kp = model.k_prime out in
  if kp >= threshold then begin
    ctr.threshold_skips <- ctr.threshold_skips + 1;
    ctr.infeasible <- ctr.infeasible + 1;
    Array.unsafe_set cost s Float.infinity;
    Array.unsafe_set tbl.best_lhs s 0
  end
  else begin
    let k_dprime = model.k_dprime in
    let dprime_is_zero = model.dprime_is_zero in
    (* Splits must come in under [threshold - kappa'] for the total
       plan cost to stay below the threshold. *)
    let best_cost_so_far = ref (threshold -. kp) in
    let best_lhs = ref 0 in
    let lhs = ref (s land (-s)) in
    let iters = ref 0 in
    while !lhs <> s do
      incr iters;
      let l = !lhs in
      let cl = Array.unsafe_get cost l in
      if cl < !best_cost_so_far then begin
        let r = s lxor l in
        let cr = Array.unsafe_get cost r in
        if cr < !best_cost_so_far then begin
          ctr.operand_sums <- ctr.operand_sums + 1;
          let oprnd_cost = cl +. cr in
          if oprnd_cost < !best_cost_so_far then begin
            let dpnd_cost =
              if dprime_is_zero then oprnd_cost
              else begin
                ctr.dprime_evals <- ctr.dprime_evals + 1;
                oprnd_cost
                +. k_dprime ~out ~lcard:(Array.unsafe_get card l)
                     ~rcard:(Array.unsafe_get card r) ~laux:(Array.unsafe_get aux l)
                     ~raux:(Array.unsafe_get aux r)
              end
            in
            if dpnd_cost < !best_cost_so_far then begin
              ctr.improvements <- ctr.improvements + 1;
              best_cost_so_far := dpnd_cost;
              best_lhs := l
            end
          end
        end
      end;
      lhs := s land (l - s)
    done;
    ctr.loop_iters <- ctr.loop_iters + !iters;
    if !best_lhs = 0 then begin
      ctr.infeasible <- ctr.infeasible + 1;
      Array.unsafe_set cost s Float.infinity;
      Array.unsafe_set tbl.best_lhs s 0
    end
    else begin
      Array.unsafe_set cost s (!best_cost_so_far +. kp);
      Array.unsafe_set tbl.best_lhs s !best_lhs
    end
  end
