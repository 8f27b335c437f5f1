module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model

(* Hot-path array accesses use [unsafe_get]/[unsafe_set]: every index is
   a nonempty subset of the n relations, i.e. an integer in [1, 2^n), and
   the arrays have exactly 2^n slots — [lhs] and its complement are
   nonempty proper subsets of [s], and [s] itself is below [2^n] by
   construction of the enumeration loops.  The checked variants cost ~15%
   of the split loop on this kernel (two bounds tests per iteration). *)


(* The split loop of find_best_split (Figure 1, realized per Section 4.2)
   as four monomorphized loop bodies in one function, dispatched once per
   subset on [Cost_model.kind]:

   - "general"  anything [Opaque] with a real kappa'': the closure is
                called per evaluation (boxing its float arguments — the
                only body that allocates);
   - "zero"     kappa'' = 0 (naive, and any Opaque model that declares
                [dprime_is_zero]): no kappa'' tier at all; reads only the
                [cost] column;
   - "sum-aux"  sort-merge: kappa'' = laux + raux inlined, read from the
                [cost] and [aux] columns;
   - "dnl"      disk nested loops: kappa'' inlined from the model's
                captured constants, operand cardinalities read from the
                [card] column.

   The bodies are spelled out inline rather than shared through helper
   functions because no float may cross a function boundary: without
   flambda, ocamlopt boxes every float argument at a call, so a
   tail-recursive kernel or a float-taking epilogue would allocate on
   each improvement.  Inside one function, local float refs compile to
   unboxed mutable variables (reference elimination), so the paper-model
   bodies are allocation-free — `bench split` gates Gc.minor_words
   delta = 0 across a warm sweep.  Each arm keeps its own prologue and
   epilogue: one shared around the four loops stays allocation-free too,
   but measurably slows the kappa_0 body.  The split counters are tallied
   in local refs and added to [ctr] once per subset: the zero arm calls
   an Opaque model's kappa' closure before its loop, which leaves [ctr]
   on the stack, and a loop that bumps [ctr] fields would reload it on
   every operand sum.  Nested ifs defer the kappa'' evaluation until
   both operand costs and their sum beat the best split so far
   (Section 6.2).

   The zero, sum-aux and dnl bodies visit each unordered split
   {l, s \ l} once.  [lhs] walks the nonempty proper subsets of [s] in
   increasing order via the successor trick, but stops at the first one
   holding [s]'s top bit: l < s lxor l iff 2l < s, hence
   [while !lhs + !lhs < s].  That is 2^(|s|-1) - 1 iterations where the
   paper's ordered loop (Figure 1) runs 2^|s| - 2.  Dropping the
   mirrored visits changes nothing for a symmetric kappa'', which these
   three bodies have: IEEE [+.], [*.] and [Float.min] commute, so (r, l)
   prices to the same bits as (l, r); the ordered loop meets the smaller
   side l first; and at its later visit to r every test compares the
   same quantity against a best that can only have dropped, so that
   visit never improves.  Costs and [best_lhs] links are therefore
   bit-identical to the ordered reference kernel's, with exactly half
   its [loop_iters].  The general body cannot assume symmetry and keeps
   the ordered walk, so it matches the reference exactly, counters
   included (both QCheck-enforced in the test suite). *)

(* kappa' alone already "overflows" the threshold: skip the split loop
   entirely.  Shared across bodies — only word-sized arguments, so the
   call cannot box. *)
let skip_subset (tbl : Dp_table.t) (ctr : Counters.t) s =
  ctr.threshold_skips <- ctr.threshold_skips + 1;
  ctr.infeasible <- ctr.infeasible + 1;
  Array.unsafe_set tbl.cost s Float.infinity;
  Array.unsafe_set tbl.best_lhs s 0

let find_best_split (tbl : Dp_table.t) (model : Cost_model.t) (ctr : Counters.t) ~threshold s =
  ctr.subsets <- ctr.subsets + 1;
  let out = Array.unsafe_get tbl.card s in
  match model.kind with
  | Cost_model.Opaque when not model.dprime_is_zero ->
    (* General body: kappa'' through the closure (boxes its float
       arguments — unavoidable without specialization).  It may be
       asymmetric, so this body keeps the ordered walk over all
       2^|s| - 2 splits. *)
    let kp = model.k_prime out in
    if kp >= threshold then skip_subset tbl ctr s
    else begin
      let cost = tbl.cost and card = tbl.card and aux = tbl.aux in
      let k_dprime = model.k_dprime in
      let best_cost = ref (threshold -. kp) in
      let best_lhs = ref 0 in
      let lhs = ref (s land (-s)) in
      let iters = ref 0 and sums = ref 0 and evals = ref 0 and improved = ref 0 in
      while !lhs <> s do
        incr iters;
        let l = !lhs in
        let cl = Array.unsafe_get cost l in
        if cl < !best_cost then begin
          let r = s lxor l in
          let cr = Array.unsafe_get cost r in
          if cr < !best_cost then begin
            incr sums;
            let oprnd = cl +. cr in
            if oprnd < !best_cost then begin
              incr evals;
              let dpnd =
                oprnd
                +. k_dprime ~out ~lcard:(Array.unsafe_get card l)
                     ~rcard:(Array.unsafe_get card r) ~laux:(Array.unsafe_get aux l)
                     ~raux:(Array.unsafe_get aux r)
              in
              if dpnd < !best_cost then begin
                incr improved;
                best_cost := dpnd;
                best_lhs := l
              end
            end
          end
        end;
        lhs := s land (l - s)
      done;
      ctr.loop_iters <- ctr.loop_iters + !iters;
      ctr.operand_sums <- ctr.operand_sums + !sums;
      ctr.dprime_evals <- ctr.dprime_evals + !evals;
      ctr.improvements <- ctr.improvements + !improved;
      if !best_lhs = 0 then begin
        ctr.infeasible <- ctr.infeasible + 1;
        Array.unsafe_set cost s Float.infinity;
        Array.unsafe_set tbl.best_lhs s 0
      end
      else begin
        Array.unsafe_set cost s (!best_cost +. kp);
        Array.unsafe_set tbl.best_lhs s !best_lhs
      end
    end
  | Cost_model.Paper_naive | Cost_model.Opaque ->
    (* kappa'' = 0: kappa' = out for the naive model (no closure even
       once per subset), the model's own kappa' otherwise. *)
    let kp = match model.kind with Cost_model.Paper_naive -> out | _ -> model.k_prime out in
    if kp >= threshold then skip_subset tbl ctr s
    else begin
      let cost = tbl.cost in
      let best_cost = ref (threshold -. kp) in
      let best_lhs = ref 0 in
      let lhs = ref (s land (-s)) in
      let iters = ref 0 and sums = ref 0 and improved = ref 0 in
      while !lhs + !lhs < s do
        incr iters;
        let l = !lhs in
        let cl = Array.unsafe_get cost l in
        if cl < !best_cost then begin
          let cr = Array.unsafe_get cost (s lxor l) in
          if cr < !best_cost then begin
            incr sums;
            let oprnd = cl +. cr in
            if oprnd < !best_cost then begin
              incr improved;
              best_cost := oprnd;
              best_lhs := l
            end
          end
        end;
        lhs := s land (l - s)
      done;
      ctr.loop_iters <- ctr.loop_iters + !iters;
      ctr.operand_sums <- ctr.operand_sums + !sums;
      ctr.improvements <- ctr.improvements + !improved;
      if !best_lhs = 0 then begin
        ctr.infeasible <- ctr.infeasible + 1;
        Array.unsafe_set cost s Float.infinity;
        Array.unsafe_set tbl.best_lhs s 0
      end
      else begin
        Array.unsafe_set cost s (!best_cost +. kp);
        Array.unsafe_set tbl.best_lhs s !best_lhs
      end
    end
  | Cost_model.Paper_sort_merge ->
    (* kappa' = 0, kappa'' = laux + raux from the memo column. *)
    if 0.0 >= threshold then skip_subset tbl ctr s
    else begin
      let cost = tbl.cost and aux = tbl.aux in
      let best_cost = ref threshold in
      let best_lhs = ref 0 in
      let lhs = ref (s land (-s)) in
      let iters = ref 0 and sums = ref 0 and evals = ref 0 and improved = ref 0 in
      while !lhs + !lhs < s do
        incr iters;
        let l = !lhs in
        let cl = Array.unsafe_get cost l in
        if cl < !best_cost then begin
          let r = s lxor l in
          let cr = Array.unsafe_get cost r in
          if cr < !best_cost then begin
            incr sums;
            let oprnd = cl +. cr in
            if oprnd < !best_cost then begin
              incr evals;
              let dpnd = oprnd +. (Array.unsafe_get aux l +. Array.unsafe_get aux r) in
              if dpnd < !best_cost then begin
                incr improved;
                best_cost := dpnd;
                best_lhs := l
              end
            end
          end
        end;
        lhs := s land (l - s)
      done;
      ctr.loop_iters <- ctr.loop_iters + !iters;
      ctr.operand_sums <- ctr.operand_sums + !sums;
      ctr.dprime_evals <- ctr.dprime_evals + !evals;
      ctr.improvements <- ctr.improvements + !improved;
      if !best_lhs = 0 then begin
        ctr.infeasible <- ctr.infeasible + 1;
        Array.unsafe_set cost s Float.infinity;
        Array.unsafe_set tbl.best_lhs s 0
      end
      else begin
        (* kappa' = 0: the best split cost IS the subset cost ([+. 0.]
           preserved for bit-identity with the reference kernel's
           [+. kp]). *)
        Array.unsafe_set cost s (!best_cost +. 0.0);
        Array.unsafe_set tbl.best_lhs s !best_lhs
      end
    end
  | Cost_model.Paper_dnl { k; inner_coeff } ->
    (* kappa' = 2 out / k; kappa'' inlined from the captured constants. *)
    let kp = 2.0 *. out /. k in
    if kp >= threshold then skip_subset tbl ctr s
    else begin
      let cost = tbl.cost and card = tbl.card in
      let best_cost = ref (threshold -. kp) in
      let best_lhs = ref 0 in
      let lhs = ref (s land (-s)) in
      let iters = ref 0 and sums = ref 0 and evals = ref 0 and improved = ref 0 in
      while !lhs + !lhs < s do
        incr iters;
        let l = !lhs in
        let cl = Array.unsafe_get cost l in
        if cl < !best_cost then begin
          let r = s lxor l in
          let cr = Array.unsafe_get cost r in
          if cr < !best_cost then begin
            incr sums;
            let oprnd = cl +. cr in
            if oprnd < !best_cost then begin
              incr evals;
              let lcard = Array.unsafe_get card l in
              let rcard = Array.unsafe_get card r in
              let dpnd =
                oprnd +. ((lcard *. rcard *. inner_coeff) +. (Float.min lcard rcard /. k))
              in
              if dpnd < !best_cost then begin
                incr improved;
                best_cost := dpnd;
                best_lhs := l
              end
            end
          end
        end;
        lhs := s land (l - s)
      done;
      ctr.loop_iters <- ctr.loop_iters + !iters;
      ctr.operand_sums <- ctr.operand_sums + !sums;
      ctr.dprime_evals <- ctr.dprime_evals + !evals;
      ctr.improvements <- ctr.improvements + !improved;
      if !best_lhs = 0 then begin
        ctr.infeasible <- ctr.infeasible + 1;
        Array.unsafe_set cost s Float.infinity;
        Array.unsafe_set tbl.best_lhs s 0
      end
      else begin
        Array.unsafe_set cost s (!best_cost +. kp);
        Array.unsafe_set tbl.best_lhs s !best_lhs
      end
    end

let variant (model : Cost_model.t) =
  match model.kind with
  | Cost_model.Opaque when not model.dprime_is_zero -> "general"
  | Cost_model.Paper_naive | Cost_model.Opaque -> "zero"
  | Cost_model.Paper_sort_merge -> "sum-aux"
  | Cost_model.Paper_dnl _ -> "dnl"

(* compute_properties for join optimization (Section 5.4): the fan
   recurrence Pi_fan(S) = Pi_fan(U+W) * Pi_fan(U+Z), seeded with raw
   predicate selectivities on doubletons, then
   card(S) = card(U) * card(V) * Pi_fan(S)  (Equation 11). *)
let compute_properties_join (tbl : Dp_table.t) (model : Cost_model.t) graph s =
  let pi_fan = tbl.pi_fan and card = tbl.card in
  let u = s land (-s) in
  let v = s lxor u in
  let fan =
    if v land (v - 1) = 0 then Join_graph.selectivity graph (Relset.min_elt u) (Relset.min_elt v)
    else begin
      let w = v land (-v) in
      let z = v lxor w in
      Array.unsafe_get pi_fan (u lor w) *. Array.unsafe_get pi_fan (u lor z)
    end
  in
  Array.unsafe_set pi_fan s fan;
  let c = Array.unsafe_get card u *. Array.unsafe_get card v *. fan in
  Array.unsafe_set card s c;
  Array.unsafe_set tbl.aux s (model.aux c)

(* compute_properties for Cartesian products (Figure 1): just the
   cardinality product.  Never touches [pi_fan] (which the product path
   leaves unallocated). *)
let compute_properties_product (tbl : Dp_table.t) (model : Cost_model.t) s =
  let card = tbl.card in
  let u = s land (-s) in
  let v = s lxor u in
  let c = Array.unsafe_get card u *. Array.unsafe_get card v in
  Array.unsafe_set card s c;
  Array.unsafe_set tbl.aux s (model.aux c)

let init_singletons (tbl : Dp_table.t) (model : Cost_model.t) catalog =
  let n = Catalog.n catalog in
  let fan = Dp_table.has_pi_fan tbl in
  for i = 0 to n - 1 do
    let s = 1 lsl i in
    let c = Catalog.card catalog i in
    tbl.card.(s) <- c;
    tbl.cost.(s) <- 0.0;
    tbl.best_lhs.(s) <- 0;
    if fan then tbl.pi_fan.(s) <- 1.0;
    tbl.aux.(s) <- model.aux c
  done
