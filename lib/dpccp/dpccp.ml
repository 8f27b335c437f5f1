module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Arena = Blitz_core.Arena
module Counters = Blitz_core.Counters
module Dp_table = Blitz_core.Dp_table
module Split_loop = Blitz_core.Split_loop
module Blitzsplit = Blitz_core.Blitzsplit
module Perf = Blitz_obs.Perf

type backend = Dense | Sparse

type t = {
  plan : Plan.t option;
  cost : float;
  table : Dp_table.t option;
  connected_sets : int;
  ccp_pairs : int;
  backend : backend;
}

let dense_limit = 20
let max_relations = Relset.max_width

let estimate_bytes ~n = Dp_table.estimate_bytes ~n:(min n dense_limit) ()

(* The pair enumeration is the expensive part here — the csg-cmp count on
   sparse graphs is polynomial, so a probe every 1024 pairs costs nothing
   while keeping cancellation latency comparable to blitzsplit's
   64-subset stride (whose per-subset split loops are far heavier). *)
let probe_mask = 1023

let invariant s1 s2 =
  failwith
    (Printf.sprintf
       "Dpccp: csg-cmp pair (%#x, %#x) emitted before a component was reached — \
        enumeration-order invariant violated"
       s1 s2)

(* Shared pair fold, parameterized over the cost/card/aux accessors of the
   two backends.  The candidate expression reproduces the split loop's
   float associativity exactly — [(cl +. cr) +. kappa''] then [+. kappa'] —
   so that on product-free optima the stored minima are bitwise equal to
   blitzsplit's (comparing after the [+. kp] shift preserves the minimum:
   [kp] is constant per subset and [+.] is monotone).

   On extreme statistics a candidate overflows to +inf (or NaN), and so
   may a component's stored cost.  Such a pair fails the strict [<] and
   improves nothing; if nothing finite ever reaches the full set the
   result is [plan = None] and the caller degrades.  So the
   enumeration-order invariant is checked by whether a component was
   reached, never by its cost. *)

(* ---- dense backend: the pooled blitzsplit table ---- *)

(* A non-singleton set is reached once its [best_lhs] link is set. *)
let reached best_lhs s = s land (s - 1) = 0 || Array.unsafe_get best_lhs s <> 0

let fold_dense tbl (model : Cost_model.t) (ctr : Counters.t) ~probe graph =
  let cost = tbl.Dp_table.cost
  and card = tbl.Dp_table.card
  and best_lhs = tbl.Dp_table.best_lhs in
  (* kappa_0 and kappa_dnl leave [aux] unwritten: their aux is the
     identity, so [card] holds its bits. *)
  let aux =
    match model.Cost_model.kind with
    | Cost_model.Paper_naive | Cost_model.Paper_dnl _ -> card
    | Cost_model.Paper_sort_merge | Cost_model.Opaque -> tbl.Dp_table.aux
  in
  let k_prime = model.Cost_model.k_prime
  and k_dprime = model.Cost_model.k_dprime
  and dprime_is_zero = model.Cost_model.dprime_is_zero in
  let sets = ref 0 in
  Ccp_enum.iter_ccp graph (fun s1 s2 ->
      ctr.Counters.ccp_pairs <- ctr.Counters.ccp_pairs + 1;
      probe ctr.Counters.ccp_pairs;
      if not (reached best_lhs s1 && reached best_lhs s2) then invariant s1 s2;
      let s = s1 lor s2 in
      let first = Array.unsafe_get best_lhs s = 0 in
      let cl = Array.unsafe_get cost s1 and cr = Array.unsafe_get cost s2 in
      let out = Array.unsafe_get card s in
      let kp = k_prime out in
      let oprnd = cl +. cr in
      let lcard = Array.unsafe_get card s1 and rcard = Array.unsafe_get card s2 in
      let laux = Array.unsafe_get aux s1 and raux = Array.unsafe_get aux s2 in
      let d1 =
        if dprime_is_zero then oprnd
        else begin
          ctr.Counters.dprime_evals <- ctr.Counters.dprime_evals + 1;
          oprnd +. k_dprime ~out ~lcard ~rcard ~laux ~raux
        end
      in
      let t1 = d1 +. kp in
      if t1 < Array.unsafe_get cost s then begin
        ctr.Counters.improvements <- ctr.Counters.improvements + 1;
        Array.unsafe_set cost s t1;
        Array.unsafe_set best_lhs s s1
      end;
      (* The enumeration emits unordered pairs; an asymmetric kappa''
         (e.g. under min-of combinations) needs the mirrored orientation
         costed too.  Symmetric models get it free via dprime_is_zero or
         produce the same value, in which case strict [<] keeps t1's. *)
      if not dprime_is_zero then begin
        ctr.Counters.dprime_evals <- ctr.Counters.dprime_evals + 1;
        let t2 =
          oprnd +. k_dprime ~out ~lcard:rcard ~rcard:lcard ~laux:raux ~raux:laux +. kp
        in
        if t2 < Array.unsafe_get cost s then begin
          ctr.Counters.improvements <- ctr.Counters.improvements + 1;
          Array.unsafe_set cost s t2;
          Array.unsafe_set best_lhs s s2
        end
      end;
      if first then begin
        incr sets;
        (* Every candidate overflowed: mark the set reached all the same.
           Its cost stays infinite, so no plan is ever extracted through
           this link. *)
        if Array.unsafe_get best_lhs s = 0 then Array.unsafe_set best_lhs s s1
      end);
  !sets

let optimize_dense ?arena ~ctr ~probe model catalog graph =
  let n = Catalog.n catalog in
  let tbl =
    match arena with
    | Some a ->
      (* An arena hands its table out as the last pass left it, and the
         fold reads a set's [cost] and [best_lhs] before writing them
         (its [reached] and [first] tests, and the strict [<]): those two
         columns start from a fresh table's values.  Every other column
         is written before it is read, as in blitzsplit. *)
      let tbl = Arena.acquire a ~with_pi_fan:true n in
      let slots = 1 lsl n in
      Array.fill tbl.Dp_table.cost 0 slots Float.infinity;
      Array.fill tbl.Dp_table.best_lhs 0 slots 0;
      tbl
    | None -> Dp_table.create ~with_pi_fan:true n
  in
  Split_loop.init_singletons ~graph:(Some graph) tbl model catalog;
  (* Full-lattice cardinality sweep through the very same fan recurrence
     blitzsplit runs, in the same increasing-subset order: the recurrence
     for a connected set reads fans of subsets that need not be connected,
     and running it over the whole lattice is what makes every card (and
     aux memo, where the model has one) bitwise identical to the exact
     optimizer's. *)
  let last = (1 lsl n) - 1 in
  for s = 3 to last do
    if s land (s - 1) <> 0 then begin
      if s land 4095 = 0 then probe s;
      Split_loop.compute_properties_join tbl model s
    end
  done;
  let sets =
    Perf.timed_rate Perf.dpccp_ns_per_pair
      ~events:(fun () -> ctr.Counters.ccp_pairs)
      (fun () -> fold_dense tbl model ctr ~probe graph)
  in
  let full = last in
  let cost = Dp_table.cost tbl full in
  let plan = if Float.is_finite cost then Dp_table.extract_plan tbl full else None in
  {
    plan;
    cost;
    table = Some tbl;
    connected_sets = n + sets;
    ccp_pairs = ctr.Counters.ccp_pairs;
    backend = Dense;
  }

(* ---- sparse backend: hash-indexed columns over connected sets only ---- *)

module Store = struct
  type t = {
    idx : (int, int) Hashtbl.t;
    mutable card : float array;
    mutable cost : float array;
    mutable aux : float array;
    mutable lhs : int array;
    mutable len : int;
  }

  let create hint =
    let cap = max 16 hint in
    {
      idx = Hashtbl.create cap;
      card = Array.make cap 0.0;
      cost = Array.make cap 0.0;
      aux = Array.make cap 0.0;
      lhs = Array.make cap 0;
      len = 0;
    }

  let grow t =
    let extend mk a = Array.append a (mk (Array.length a)) in
    t.card <- extend (fun l -> Array.make l 0.0) t.card;
    t.cost <- extend (fun l -> Array.make l 0.0) t.cost;
    t.aux <- extend (fun l -> Array.make l 0.0) t.aux;
    t.lhs <- extend (fun l -> Array.make l 0) t.lhs

  let add t s ~card ~aux ~cost =
    if t.len = Array.length t.card then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.card.(i) <- card;
    t.cost.(i) <- cost;
    t.aux.(i) <- aux;
    t.lhs.(i) <- 0;
    Hashtbl.add t.idx s i;
    i

  let find_opt t s = Hashtbl.find_opt t.idx s
end

(* Canonical deterministic cardinality: member cardinalities in ascending
   index order, then for each member the selectivities against every
   earlier member, also ascending.  O(|s|^2) float multiplies per stored
   set — irrelevant next to the enumeration, and independent of which ccp
   pair first produced the set. *)
let sparse_card catalog graph s =
  let c = ref 1.0 in
  let rest = ref s in
  while !rest <> 0 do
    let b = !rest land - !rest in
    let j = Relset.min_elt b in
    c := !c *. Catalog.card catalog j;
    let earlier = ref (s land (b - 1)) in
    while !earlier <> 0 do
      let eb = !earlier land - !earlier in
      let i = Relset.min_elt eb in
      if Join_graph.has_edge graph i j then c := !c *. Join_graph.selectivity graph i j;
      earlier := !earlier lxor eb
    done;
    rest := !rest lxor b
  done;
  !c

let rec sparse_extract st s =
  if s land (s - 1) = 0 then Plan.Leaf (Relset.min_elt s)
  else
    match Store.find_opt st s with
    | None -> failwith "Dpccp: sparse extraction hit an unstored set"
    | Some i ->
      let l = st.Store.lhs.(i) in
      Plan.Join (sparse_extract st l, sparse_extract st (s lxor l))

let fold_sparse st (model : Cost_model.t) (ctr : Counters.t) ~probe catalog graph =
  let k_prime = model.Cost_model.k_prime
  and k_dprime = model.Cost_model.k_dprime
  and dprime_is_zero = model.Cost_model.dprime_is_zero in
  Ccp_enum.iter_ccp graph (fun s1 s2 ->
      ctr.Counters.ccp_pairs <- ctr.Counters.ccp_pairs + 1;
      probe ctr.Counters.ccp_pairs;
      (* Store membership is the reached mark: a set is stored when the
         first pair producing it is folded, whatever that pair costs. *)
      let i1 = match Store.find_opt st s1 with Some i -> i | None -> invariant s1 s2
      and i2 = match Store.find_opt st s2 with Some i -> i | None -> invariant s1 s2 in
      let cl = st.Store.cost.(i1) and cr = st.Store.cost.(i2) in
      let s = s1 lor s2 in
      let i =
        match Store.find_opt st s with
        | Some i -> i
        | None ->
          let card = sparse_card catalog graph s in
          Store.add st s ~card ~aux:(model.Cost_model.aux card) ~cost:Float.infinity
      in
      let out = st.Store.card.(i) in
      let kp = k_prime out in
      let oprnd = cl +. cr in
      let lcard = st.Store.card.(i1) and rcard = st.Store.card.(i2) in
      let laux = st.Store.aux.(i1) and raux = st.Store.aux.(i2) in
      let d1 =
        if dprime_is_zero then oprnd
        else begin
          ctr.Counters.dprime_evals <- ctr.Counters.dprime_evals + 1;
          oprnd +. k_dprime ~out ~lcard ~rcard ~laux ~raux
        end
      in
      let t1 = d1 +. kp in
      if t1 < st.Store.cost.(i) then begin
        ctr.Counters.improvements <- ctr.Counters.improvements + 1;
        st.Store.cost.(i) <- t1;
        st.Store.lhs.(i) <- s1
      end;
      if not dprime_is_zero then begin
        ctr.Counters.dprime_evals <- ctr.Counters.dprime_evals + 1;
        let t2 =
          oprnd +. k_dprime ~out ~lcard:rcard ~rcard:lcard ~laux:raux ~raux:laux +. kp
        in
        if t2 < st.Store.cost.(i) then begin
          ctr.Counters.improvements <- ctr.Counters.improvements + 1;
          st.Store.cost.(i) <- t2;
          st.Store.lhs.(i) <- s2
        end
      end)

let optimize_sparse ~ctr ~probe model catalog graph =
  let n = Catalog.n catalog in
  let st = Store.create (16 * n * n) in
  for i = 0 to n - 1 do
    let c = Catalog.card catalog i in
    ignore (Store.add st (1 lsl i) ~card:c ~aux:(model.Cost_model.aux c) ~cost:0.0)
  done;
  Perf.timed_rate Perf.dpccp_ns_per_pair
    ~events:(fun () -> ctr.Counters.ccp_pairs)
    (fun () -> fold_sparse st model ctr ~probe catalog graph);
  let full = (1 lsl n) - 1 in
  let cost, plan =
    match Store.find_opt st full with
    | Some i when Float.is_finite st.Store.cost.(i) ->
      (st.Store.cost.(i), Some (sparse_extract st full))
    | _ -> (Float.infinity, None)
  in
  {
    plan;
    cost;
    table = None;
    connected_sets = st.Store.len;
    ccp_pairs = ctr.Counters.ccp_pairs;
    backend = Sparse;
  }

(* ---- front door ---- *)

let optimize ?arena ?counters ?interrupt ?(backend = `Auto) model catalog graph =
  let n = Catalog.n catalog in
  if Join_graph.n graph <> n then
    invalid_arg
      (Printf.sprintf "Dpccp: graph over %d relations, catalog has %d" (Join_graph.n graph) n);
  if n > max_relations then
    invalid_arg (Printf.sprintf "Dpccp: %d relations exceed the %d-relation cap" n max_relations);
  let dense =
    match backend with
    | `Dense ->
      if n > Dp_table.max_relations then
        invalid_arg
          (Printf.sprintf "Dpccp: dense backend capped at %d relations" Dp_table.max_relations);
      true
    | `Sparse -> false
    | `Auto -> n <= dense_limit
  in
  let ctr = match counters with Some c -> c | None -> Counters.create () in
  ctr.Counters.passes <- ctr.Counters.passes + 1;
  let probe =
    match interrupt with
    | None -> fun _ -> ()
    | Some stop -> fun p -> if p land probe_mask = 0 && stop () then raise Blitzsplit.Interrupted
  in
  if dense then optimize_dense ?arena ~ctr ~probe model catalog graph
  else optimize_sparse ~ctr ~probe model catalog graph
