type t = {
  mutable subsets : int;
  mutable loop_iters : int;
  mutable operand_sums : int;
  mutable dprime_evals : int;
  mutable improvements : int;
  mutable threshold_skips : int;
  mutable infeasible : int;
  mutable passes : int;
  mutable ccp_pairs : int;
}

let create () =
  {
    subsets = 0;
    loop_iters = 0;
    operand_sums = 0;
    dprime_evals = 0;
    improvements = 0;
    threshold_skips = 0;
    infeasible = 0;
    passes = 0;
    ccp_pairs = 0;
  }

let reset t =
  t.subsets <- 0;
  t.loop_iters <- 0;
  t.operand_sums <- 0;
  t.dprime_evals <- 0;
  t.improvements <- 0;
  t.threshold_skips <- 0;
  t.infeasible <- 0;
  t.passes <- 0;
  t.ccp_pairs <- 0

let copy t = { t with subsets = t.subsets }

let merge_into ~from ~into =
  into.subsets <- into.subsets + from.subsets;
  into.loop_iters <- into.loop_iters + from.loop_iters;
  into.operand_sums <- into.operand_sums + from.operand_sums;
  into.dprime_evals <- into.dprime_evals + from.dprime_evals;
  into.improvements <- into.improvements + from.improvements;
  into.threshold_skips <- into.threshold_skips + from.threshold_skips;
  into.infeasible <- into.infeasible + from.infeasible;
  into.passes <- into.passes + from.passes;
  into.ccp_pairs <- into.ccp_pairs + from.ccp_pairs

let exact_loop_iters n =
  if n < 1 then invalid_arg "Counters.exact_loop_iters: n must be positive";
  let rec pow base k acc = if k = 0 then acc else pow base (k - 1) (acc * base) in
  (pow 3 n 1 - (2 * pow 2 n 1) + 1) / 2

let predicted_dprime_lower n =
  0.5 *. log 2.0 *. float_of_int n *. Blitz_util.Float_more.pow_int 2.0 n

let predicted_dprime_upper n = Blitz_util.Float_more.pow_int 3.0 n

(* [ccp pairs] prints only when nonzero: the field is fed exclusively by
   the dpccp driver, and the blitzsplit-family counter dumps (including
   the cram-tested CLI output) should not grow a permanently-zero row. *)
let pp ppf t =
  Format.fprintf ppf
    "@[<v>subsets processed:   %d@,split-loop iters:    %d@,operand sums:        %d@,\
     kappa'' evaluations: %d@,improvements:        %d@,threshold skips:     %d@,\
     infeasible subsets:  %d@,passes:              %d"
    t.subsets t.loop_iters t.operand_sums t.dprime_evals t.improvements t.threshold_skips
    t.infeasible t.passes;
  if t.ccp_pairs > 0 then Format.fprintf ppf "@,ccp pairs:           %d" t.ccp_pairs;
  Format.fprintf ppf "@]"
