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

(* Section 6.4's skip test, the one copy every form of the pass runs: a
   subset whose kappa' reaches [threshold] is settled (cost infinity,
   best_lhs 0) and the test returns [false]; otherwise its split bound,
   [threshold - kappa'], is parked in its own cost slot, which no operand
   reads and [split]'s epilogue overwrites (adding the same kappa'), so
   no float crosses a call.  The completion bound runs it with kappa' = 0
   against [completion_threshold]; [bound -. 0.0] is [bound]'s bits. *)
let[@inline] seed_bound (tbl : Dp_table.t) s ~kp ~threshold =
  if kp >= threshold then begin
    Array.unsafe_set tbl.cost s Float.infinity;
    Array.unsafe_set tbl.best_lhs s 0;
    false
  end
  else begin
    Array.unsafe_set tbl.cost s (threshold -. kp);
    true
  end

(* kappa' of the paper models, the one copy the skip test and the split
   epilogues compute: out under kappa_0, 0 under kappa_sm and 2 out / K
   under kappa_dnl, spelled as [Cost_model]'s closures spell them so
   the bits agree; an [Opaque] model's own closure otherwise.  The
   bodies already dispatched on kappa_dnl call [dnl_k_prime] alone. *)
let[@inline] dnl_k_prime ~k out = 2.0 *. out /. k

let[@inline] k_prime_of (model : Cost_model.t) out =
  match model.kind with
  | Cost_model.Paper_naive -> out
  | Cost_model.Paper_sort_merge -> 0.0
  | Cost_model.Paper_dnl { k; _ } -> dnl_k_prime ~k out
  | Cost_model.Opaque -> model.k_prime out

(* The completion bound (kappa_sm only).  Under kappa_sm a binary plan
   costs the sum of aux(card v) over every node v but the root, since
   each such node is the input to exactly one join and kappa' = 0.  So
   every complete plan containing S, 1 < |S| < n, costs at least
   cost(S) + aux(card S) + the aux of every leaf outside S: its subtree
   under S, S itself as an input, and the leaves it has not reached.  A
   pass at threshold T may then give S the threshold T minus that
   completion term, and skip S when nothing is left.  The full set keeps
   T.  The leaves' aux comes from the table's singleton slots, so the
   term reads the bits the DP reads.  The sum stops once it reaches T:
   past that point only its sign matters.  [@inline] keeps the float
   unboxed in sweep 1's kappa_sm arms, its callers in the library. *)
let[@inline] completion_threshold (tbl : Dp_table.t) ~threshold s =
  let full = (1 lsl tbl.n) - 1 in
  if s = full then threshold
  else begin
    let aux = tbl.aux in
    let term = ref (Array.unsafe_get aux s) in
    let rest = ref (full lxor s) in
    while !rest <> 0 && !term < threshold do
      let r = !rest land (- !rest) in
      term := !term +. Array.unsafe_get aux r;
      rest := !rest lxor r
    done;
    threshold -. !term
  end

let completion_applies (model : Cost_model.t) ~threshold =
  match model.kind with
  | Cost_model.Paper_sort_merge -> Float.is_finite threshold
  | Cost_model.Paper_naive | Cost_model.Paper_dnl _ | Cost_model.Opaque -> false

(* The rank of a subset (its number of relations): a SWAR popcount over
   the 24 bits a subset can hold.  It and [Live_index]'s top-relation
   lookups are spelled out in this module because dune's dev profile
   builds with -opaque, so a helper in [Live_index] would be a call per
   subset, and a call spills the loop's state around it. *)
let[@inline] rank s =
  let x = s - ((s lsr 1) land 0x555555) in
  let x = (x land 0x333333) + ((x lsr 2) land 0x333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f in
  ((x * 0x010101) lsr 16) land 0xff

(* Sweep 1's append of a kept subset to its block's segment of its
   rank's region, [row] the block's row of [seg] and [len]: subsets come
   in increasing order, so every segment is in increasing order. *)
let[@inline] keep (lists : Live_index.t) row s =
  let i = row + rank s in
  let m = Array.unsafe_get lists.len i in
  Bigarray.Array1.unsafe_set lists.ids (Array.unsafe_get lists.seg i + m) (Int32.of_int s);
  Array.unsafe_set lists.len i (m + 1)

(* Which loop a subset runs under [index]: -1 for the walk, or the
   scan's shape k lor (b lsl 5), k the rank of s and b the top relation
   of s \ top s, when the index is on and its candidates for s,
   [cum.(b * stride + k)], are fewer than the walk's 2^(k-1) - 1 splits.
   The top relations take two 12-bit lookups each. *)
let[@inline] scan_shape (index : Live_index.t) s =
  if not index.on then -1
  else begin
    let k = rank s in
    let tops = Live_index.top_table in
    let t =
      if s < 4096 then Char.code (Bytes.unsafe_get tops s)
      else 12 + Char.code (Bytes.unsafe_get tops (s lsr 12))
    in
    let rest = s lxor (1 lsl t) in
    let b =
      if rest < 4096 then Char.code (Bytes.unsafe_get tops rest)
      else 12 + Char.code (Bytes.unsafe_get tops (rest lsr 12))
    in
    if Array.unsafe_get index.cum ((b * Live_index.stride) + k) < (1 lsl (k - 1)) - 1 then
      k lor (b lsl 5)
    else -1
  end

(* The scan (seeded passes, paper models).  At a finite threshold a dead
   operand (cost infinity) never passes the walk's first test, so only
   live left operands can be taken; [Live_index] lists them.  A subset s
   of rank k whose [scan_shape] is not -1 runs this loop instead of the
   walk: over ranks 1 .. k-1 in order, ascending within a rank, it
   visits the indexed subsets below 2^(b+1), b the top relation of
   s \ top s, and prices those inside s \ top s, the walk's left
   operands.  It starts from the split bound [seed] parked in s's own
   cost slot, which no operand reads and the epilogue overwrites: a
   float passed here would be boxed.

   The walk visits left operands in increasing order and takes a split
   only on strict improvement, so it keeps the smallest left operand
   among the minimal splits: with non-negative cost terms each operand
   cost and their sum are at most the split's cost, so the first minimal
   split passes every test, and none after it improves.  The scan meets
   operands in another order, so it tests them with [<=] and takes a
   split when (cost, lhs) is lexicographically smaller than the best so
   far.  That keeps the same split, and a split costing exactly the
   starting bound is never taken, as in the walk.  Costs and best_lhs are
   therefore the walk's, bit for bit.  [loop_iters] grows by the splits
   the scan prices, one per live left operand, and the other split
   counters count this loop's events.  Every width visits the same
   candidates in the same order, so every counter agrees across widths.
   The scan is kept out of [split]: sharing one function with the walks
   slows them. *)
let[@inline never] scan_best_split (index : Live_index.t) (tbl : Dp_table.t)
    (model : Cost_model.t) (ctr : Counters.t) s shape =
  let k = shape land 31 and b = shape lsr 5 in
  let row = b * Live_index.stride in
  let rest = s land ((2 lsl b) - 1) in
  let cost = tbl.cost and ids = index.ids and region = index.region and cum = index.cum in
  let best_cost = ref (Array.unsafe_get cost s) in
  let best_lhs = ref 0 in
  let iters = ref 0 and sums = ref 0 and evals = ref 0 and improved = ref 0 in
  let out = Array.unsafe_get tbl.card s in
  (match model.kind with
  | Cost_model.Paper_naive ->
    for rank = 1 to k - 1 do
      let j = ref (Array.unsafe_get region rank) in
      let stop = !j + Array.unsafe_get cum (row + rank + 1) - Array.unsafe_get cum (row + rank) in
      while !j < stop do
        let l = Int32.to_int (Bigarray.Array1.unsafe_get ids !j) in
        if l land rest = l then begin
          incr iters;
          let cl = Array.unsafe_get cost l in
          if cl <= !best_cost then begin
            let cr = Array.unsafe_get cost (s lxor l) in
            if cr <= !best_cost then begin
              incr sums;
              let oprnd = cl +. cr in
              if oprnd < !best_cost || (oprnd = !best_cost && l < !best_lhs) then begin
                incr improved;
                best_cost := oprnd;
                best_lhs := l
              end
            end
          end
        end;
        incr j
      done
    done;
    if !best_lhs <> 0 then Array.unsafe_set cost s (!best_cost +. out)
  | Cost_model.Paper_sort_merge ->
    let aux = tbl.aux in
    for rank = 1 to k - 1 do
      let j = ref (Array.unsafe_get region rank) in
      let stop = !j + Array.unsafe_get cum (row + rank + 1) - Array.unsafe_get cum (row + rank) in
      while !j < stop do
        let l = Int32.to_int (Bigarray.Array1.unsafe_get ids !j) in
        if l land rest = l then begin
          incr iters;
          let cl = Array.unsafe_get cost l in
          if cl <= !best_cost then begin
            let r = s lxor l in
            let cr = Array.unsafe_get cost r in
            if cr <= !best_cost then begin
              incr sums;
              let oprnd = cl +. cr in
              if oprnd <= !best_cost then begin
                incr evals;
                let dpnd = oprnd +. (Array.unsafe_get aux l +. Array.unsafe_get aux r) in
                if dpnd < !best_cost || (dpnd = !best_cost && l < !best_lhs) then begin
                  incr improved;
                  best_cost := dpnd;
                  best_lhs := l
                end
              end
            end
          end
        end;
        incr j
      done
    done;
    if !best_lhs <> 0 then Array.unsafe_set cost s (!best_cost +. 0.0)
  | Cost_model.Paper_dnl { k = dk; inner_coeff } ->
    let card = tbl.card in
    for rank = 1 to k - 1 do
      let j = ref (Array.unsafe_get region rank) in
      let stop = !j + Array.unsafe_get cum (row + rank + 1) - Array.unsafe_get cum (row + rank) in
      while !j < stop do
        let l = Int32.to_int (Bigarray.Array1.unsafe_get ids !j) in
        if l land rest = l then begin
          incr iters;
          let cl = Array.unsafe_get cost l in
          if cl <= !best_cost then begin
            let r = s lxor l in
            let cr = Array.unsafe_get cost r in
            if cr <= !best_cost then begin
              incr sums;
              let oprnd = cl +. cr in
              if oprnd <= !best_cost then begin
                incr evals;
                let lcard = Array.unsafe_get card l in
                let rcard = Array.unsafe_get card r in
                let dpnd =
                  oprnd +. ((lcard *. rcard *. inner_coeff) +. (Float.min lcard rcard /. dk))
                in
                if dpnd < !best_cost || (dpnd = !best_cost && l < !best_lhs) then begin
                  incr improved;
                  best_cost := dpnd;
                  best_lhs := l
                end
              end
            end
          end
        end;
        incr j
      done
    done;
    if !best_lhs <> 0 then Array.unsafe_set cost s (!best_cost +. dnl_k_prime ~k:dk out)
  | Cost_model.Opaque -> invalid_arg "Split_loop: no scan under an Opaque model");
  ctr.loop_iters <- ctr.loop_iters + !iters;
  ctr.operand_sums <- ctr.operand_sums + !sums;
  ctr.dprime_evals <- ctr.dprime_evals + !evals;
  ctr.improvements <- ctr.improvements + !improved;
  if !best_lhs = 0 then begin
    ctr.infeasible <- ctr.infeasible + 1;
    Array.unsafe_set cost s Float.infinity
  end;
  Array.unsafe_set tbl.best_lhs s !best_lhs

let split ~index (tbl : Dp_table.t) (model : Cost_model.t) (ctr : Counters.t) s =
  let out = Array.unsafe_get tbl.card s in
  match model.kind with
  | Cost_model.Opaque when not model.dprime_is_zero ->
    (* General body: kappa'' through the closure (boxes its float
       arguments — unavoidable without specialization).  It may be
       asymmetric, so this body keeps the ordered walk over all
       2^|s| - 2 splits. *)
    let kp = model.k_prime out in
    let cost = tbl.cost and card = tbl.card and aux = tbl.aux in
    let k_dprime = model.k_dprime in
    let best_cost = ref (Array.unsafe_get cost s) in
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
  | Cost_model.Paper_naive | Cost_model.Opaque ->
    (* kappa'' = 0: kappa' = out for the naive model (no closure even
       once per subset), the model's own kappa' otherwise. *)
    let shape =
      match model.kind with Cost_model.Paper_naive -> scan_shape index s | _ -> -1
    in
    if shape >= 0 then scan_best_split index tbl model ctr s shape
    else begin
      let kp = k_prime_of model out in
      let cost = tbl.cost in
      let best_cost = ref (Array.unsafe_get cost s) in
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
    let shape = scan_shape index s in
    if shape >= 0 then scan_best_split index tbl model ctr s shape
    else begin
      let cost = tbl.cost and aux = tbl.aux in
      let best_cost = ref (Array.unsafe_get cost s) in
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
    let shape = scan_shape index s in
    if shape >= 0 then scan_best_split index tbl model ctr s shape
    else begin
      let kp = dnl_k_prime ~k out in
      let cost = tbl.cost and card = tbl.card in
      let best_cost = ref (Array.unsafe_get cost s) in
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

(* [out] and [kp] get lets of their own: a float let stays unboxed
   although one branch of [k_prime_of] calls a closure, where an
   argument inlined into [seed_bound] would be boxed. *)
let find_best_split (tbl : Dp_table.t) model (ctr : Counters.t) ~threshold s =
  ctr.subsets <- ctr.subsets + 1;
  let out = Array.unsafe_get tbl.card s in
  let kp = k_prime_of model out in
  if seed_bound tbl s ~kp ~threshold then split ~index:Live_index.off tbl model ctr s
  else begin
    ctr.threshold_skips <- ctr.threshold_skips + 1;
    ctr.infeasible <- ctr.infeasible + 1
  end

let scan_applies (model : Cost_model.t) ~threshold =
  match model.kind with
  | Cost_model.Paper_naive | Cost_model.Paper_sort_merge | Cost_model.Paper_dnl _ ->
    Float.is_finite threshold
  | Cost_model.Opaque -> false

let variant (model : Cost_model.t) =
  match model.kind with
  | Cost_model.Opaque when not model.dprime_is_zero -> "general"
  | Cost_model.Paper_naive | Cost_model.Opaque -> "zero"
  | Cost_model.Paper_sort_merge -> "sum-aux"
  | Cost_model.Paper_dnl _ -> "dnl"

(* The property computations allocate nothing per subset under the
   paper models, for the same reason the split loop does not: no float
   crosses a function boundary.  Each helper below is [@inline], so its
   float result stays unboxed in every caller.  Inputs read through
   another module (a relation's cardinality, a doubleton's selectivity)
   are stored straight into the table by that module, since a returned
   float would be boxed.

   The [aux] memo is written only where a kernel reads it: under
   kappa_sm, c(1 + log c), spelled as [Cost_model.sort_merge]'s closure
   spells it so the memo holds the same bits, and under an [Opaque]
   model, whose closure boxes.  kappa_0 and kappa_dnl have the identity
   for [aux], and their kernels read [card]. *)
let[@inline] sm_aux c = if c <= 1.0 then c else c *. (1.0 +. log c)

let[@inline] store_aux (tbl : Dp_table.t) (model : Cost_model.t) s c =
  match model.kind with
  | Cost_model.Paper_naive | Cost_model.Paper_dnl _ -> ()
  | Cost_model.Paper_sort_merge -> Array.unsafe_set tbl.aux s (sm_aux c)
  | Cost_model.Opaque -> Array.unsafe_set tbl.aux s (model.aux c)

(* The fan recurrence of Section 5.4, Pi_fan(S) = Pi_fan(U+W) *
   Pi_fan(U+Z) with U the lowest relation of S and W the lowest of
   V = S \ U = W + Z, seeded with the raw predicate selectivities
   [init_singletons] stores on doubletons; then card(S) = card(U) *
   card(V) * Pi_fan(S) (Equation 11).  Writes both (a doubleton's
   [pi_fan] only reads) and returns the cardinality. *)
let[@inline] join_card (tbl : Dp_table.t) s =
  let pi_fan = tbl.pi_fan and card = tbl.card in
  let u = s land (-s) in
  let v = s lxor u in
  if v land (v - 1) <> 0 then begin
    let w = v land (-v) in
    let z = v lxor w in
    Array.unsafe_set pi_fan s
      (Array.unsafe_get pi_fan (u lor w) *. Array.unsafe_get pi_fan (u lor z))
  end;
  let c = Array.unsafe_get card u *. Array.unsafe_get card v *. Array.unsafe_get pi_fan s in
  Array.unsafe_set card s c;
  c

(* The Cartesian-product form (Figure 1): the cardinality product alone,
   [pi_fan] untouched. *)
let[@inline] product_card (tbl : Dp_table.t) s =
  let card = tbl.card in
  let u = s land (-s) in
  let c = Array.unsafe_get card u *. Array.unsafe_get card (s lxor u) in
  Array.unsafe_set card s c;
  c

let compute_properties_join (tbl : Dp_table.t) (model : Cost_model.t) s =
  store_aux tbl model s (join_card tbl s)

let init_singletons ~graph (tbl : Dp_table.t) (model : Cost_model.t) catalog =
  let n = Catalog.n catalog in
  let fan = Dp_table.has_pi_fan tbl in
  for i = 0 to n - 1 do
    let s = 1 lsl i in
    Catalog.card_into catalog i tbl.card s;
    tbl.cost.(s) <- 0.0;
    tbl.best_lhs.(s) <- 0;
    if fan then tbl.pi_fan.(s) <- 1.0;
    store_aux tbl model s tbl.card.(s)
  done;
  Option.iter
    (fun g ->
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          Join_graph.selectivity_into g i j tbl.pi_fan ((1 lsl i) lor (1 lsl j))
        done
      done)
    graph

exception Interrupted

(* How often the cancellation probe fires: every [probe_mask + 1]
   subsets of a sweep, on every domain.  Subsets near the top of the
   lattice carry split loops of up to [2^(n-1)] iterations each, so a
   64-subset stride keeps the worst-case overshoot past a deadline small
   while the probe itself stays invisible next to the [O(3^n)] loop. *)
let probe_mask = 63

let add_sweep_counts (ctr : Counters.t) ~subsets ~skips =
  ctr.subsets <- ctr.subsets + subsets;
  ctr.threshold_skips <- ctr.threshold_skips + skips;
  ctr.infeasible <- ctr.infeasible + skips

let interrupted ctr subsets skips =
  add_sweep_counts ctr ~subsets ~skips;
  raise Interrupted

(* Sweep 1 over one block of the lattice as one loop per cost model and
   per join or product pass, dispatched once: each arm computes a
   subset's properties, runs the skip test and appends a kept subset to
   its block's segment of its rank's list, with the model's arithmetic
   inlined through the helpers above.  The subset and skip counts live
   in local refs, added to [ctr] at the end of the block or before
   [Interrupted] leaves it, so no [ctr] field is reloaded per subset. *)
let sweep ~graph ~interrupt (tbl : Dp_table.t) (model : Cost_model.t) (ctr : Counters.t)
    ~threshold (lists : Live_index.t) ~block =
  let width = (1 lsl tbl.n) / lists.blocks in
  let first = max 3 (block * width) and last = ((block + 1) * width) - 1 in
  let row = block * Live_index.stride in
  let polling = Option.is_some interrupt in
  let probe = match interrupt with Some p -> p | None -> fun () -> false in
  let completion = completion_applies model ~threshold in
  let aux = tbl.aux in
  let subsets = ref 0 and skips = ref 0 in
  (match (model.kind, graph) with
  | Cost_model.Paper_naive, Some _ ->
    for s = first to last do
      if polling && s land probe_mask = 0 && probe () then interrupted ctr !subsets !skips;
      if s land (s - 1) <> 0 then begin
        incr subsets;
        let c = join_card tbl s in
        if seed_bound tbl s ~kp:c ~threshold then keep lists row s else incr skips
      end
    done
  | Cost_model.Paper_naive, None ->
    for s = first to last do
      if polling && s land probe_mask = 0 && probe () then interrupted ctr !subsets !skips;
      if s land (s - 1) <> 0 then begin
        incr subsets;
        let c = product_card tbl s in
        if seed_bound tbl s ~kp:c ~threshold then keep lists row s else incr skips
      end
    done
  | Cost_model.Paper_sort_merge, Some _ ->
    for s = first to last do
      if polling && s land probe_mask = 0 && probe () then interrupted ctr !subsets !skips;
      if s land (s - 1) <> 0 then begin
        incr subsets;
        Array.unsafe_set aux s (sm_aux (join_card tbl s));
        let bound = if completion then completion_threshold tbl ~threshold s else threshold in
        if seed_bound tbl s ~kp:0.0 ~threshold:bound then keep lists row s else incr skips
      end
    done
  | Cost_model.Paper_sort_merge, None ->
    for s = first to last do
      if polling && s land probe_mask = 0 && probe () then interrupted ctr !subsets !skips;
      if s land (s - 1) <> 0 then begin
        incr subsets;
        Array.unsafe_set aux s (sm_aux (product_card tbl s));
        let bound = if completion then completion_threshold tbl ~threshold s else threshold in
        if seed_bound tbl s ~kp:0.0 ~threshold:bound then keep lists row s else incr skips
      end
    done
  | Cost_model.Paper_dnl { k; _ }, Some _ ->
    for s = first to last do
      if polling && s land probe_mask = 0 && probe () then interrupted ctr !subsets !skips;
      if s land (s - 1) <> 0 then begin
        incr subsets;
        let kp = dnl_k_prime ~k (join_card tbl s) in
        if seed_bound tbl s ~kp ~threshold then keep lists row s else incr skips
      end
    done
  | Cost_model.Paper_dnl { k; _ }, None ->
    for s = first to last do
      if polling && s land probe_mask = 0 && probe () then interrupted ctr !subsets !skips;
      if s land (s - 1) <> 0 then begin
        incr subsets;
        let kp = dnl_k_prime ~k (product_card tbl s) in
        if seed_bound tbl s ~kp ~threshold then keep lists row s else incr skips
      end
    done
  | Cost_model.Opaque, _ ->
    (* The closures box per subset anyway: one arm serves both passes. *)
    for s = first to last do
      if polling && s land probe_mask = 0 && probe () then interrupted ctr !subsets !skips;
      if s land (s - 1) <> 0 then begin
        incr subsets;
        let c = match graph with Some _ -> join_card tbl s | None -> product_card tbl s in
        Array.unsafe_set aux s (model.aux c);
        if seed_bound tbl s ~kp:(model.k_prime c) ~threshold then keep lists row s else incr skips
      end
    done);
  add_sweep_counts ctr ~subsets:!subsets ~skips:!skips
