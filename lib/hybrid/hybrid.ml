module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Relset = Blitz_bitset.Relset
module Rng = Blitz_util.Rng
module Transform = Blitz_baselines.Transform
module Eval = Blitz_baselines.Eval
module Greedy = Blitz_baselines.Greedy
module Blitzsplit = Blitz_core.Blitzsplit
module Dp_table = Blitz_core.Dp_table

type stats = {
  windows_reoptimized : int;
  windows_improved : int;
  kicks : int;
  plans_evaluated : int;
}

let replace_at plan path subtree =
  let rec go plan path =
    match (path, plan) with
    | [], _ -> subtree
    | 0 :: rest, Plan.Join (l, r) -> Plan.Join (go l rest, r)
    | 1 :: rest, Plan.Join (l, r) -> Plan.Join (l, go r rest)
    | _ :: _, (Plan.Leaf _ | Plan.Join _) -> invalid_arg "Hybrid.replace_at: bad path"
  in
  go plan path

(* Break a subtree into at most [window] units by repeatedly splitting
   the unit with the most leaves.  Units are whole subtrees; when the
   subtree has <= window leaves every unit is a single relation. *)
let decompose ~window subtree =
  let module H = struct
    type unit_tree = { tree : Plan.t; leaves : int }
  end in
  let open H in
  let wrap tree = { tree; leaves = Plan.leaf_count tree } in
  let rec go units count =
    if count >= window then units
    else begin
      (* Split the largest splittable unit. *)
      let largest =
        List.fold_left
          (fun acc u ->
            match (u.tree, acc) with
            | Plan.Leaf _, _ -> acc
            | Plan.Join _, Some best when best.leaves >= u.leaves -> acc
            | Plan.Join _, (Some _ | None) -> Some u)
          None units
      in
      match largest with
      | None -> units
      | Some u -> (
        match u.tree with
        | Plan.Leaf _ -> units
        | Plan.Join (l, r) ->
          let rest = List.filter (fun v -> v != u) units in
          go (wrap l :: wrap r :: rest) (count + 1))
    end
  in
  List.map (fun u -> u.tree) (go [ wrap subtree ] 1)

(* Exactly re-arrange the units of a subtree with blitzsplit over a
   composite problem: each unit becomes a pseudo-relation whose
   cardinality is the unit's estimated output cardinality, and the
   selectivity between two units is the span product of the real
   predicates between their leaf sets.  By Equations (7)/(8) the
   composite estimates agree with the leaf-level ones on every union of
   units, so the arrangement found is optimal among all arrangements of
   these units.  Unit-internal structure (and cost) is untouched. *)
let reoptimize_units ?arena model catalog graph units =
  let k = List.length units in
  if k < 2 || k > Dp_table.max_relations then None
  else begin
    let unit_arr = Array.of_list units in
    let sets = Array.map Plan.relations unit_arr in
    let cards = Array.map (fun s -> Join_graph.join_cardinality catalog graph s) sets in
    if not (Array.for_all (fun c -> Float.is_finite c && c > 0.0) cards) then None
    else begin
      let composite_catalog =
        Catalog.of_list (Array.to_list (Array.mapi (fun i c -> (Printf.sprintf "U%d" i, c)) cards))
      in
      let edges = ref [] in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          let sel = Join_graph.pi_span graph sets.(i) sets.(j) in
          if sel <> 1.0 then edges := (i, j, sel) :: !edges
        done
      done;
      let composite_graph = Join_graph.of_edges ~n:k !edges in
      let result = Blitzsplit.optimize_join ?arena model composite_catalog composite_graph in
      match Blitzsplit.best_plan result with
      | None -> None
      | Some arrangement ->
        (* Substitute each pseudo-relation by its unit subtree. *)
        let rec subst = function
          | Plan.Leaf i -> unit_arr.(i)
          | Plan.Join (l, r) -> Plan.Join (subst l, subst r)
        in
        Some (subst arrangement)
    end
  end

let internal_paths plan =
  let acc = ref [] in
  let rec go rev_path = function
    | Plan.Leaf _ -> ()
    | Plan.Join (l, r) ->
      acc := List.rev rev_path :: !acc;
      go (0 :: rev_path) l;
      go (1 :: rev_path) r
  in
  go [] plan;
  List.rev !acc

let subtree_at plan path =
  let rec go plan = function
    | [] -> plan
    | dir :: rest -> (
      match plan with
      | Plan.Leaf _ -> invalid_arg "Hybrid.subtree_at: bad path"
      | Plan.Join (l, r) -> go (if dir = 0 then l else r) rest)
  in
  go plan path

(* Random moves per kick. *)
let kick_strength = 3

let optimize ~rng ?arena ?window ?kicks ?start ?(interrupt = fun () -> false) model catalog graph =
  let n = Catalog.n catalog in
  if Join_graph.n graph <> n then invalid_arg "Hybrid.optimize: graph/catalog size mismatch";
  let window =
    match window with
    | Some w -> if w < 2 then invalid_arg "Hybrid.optimize: window must be at least 2" else min w n
    | None -> min 10 n
  in
  let kick_budget = match kicks with Some k -> max 0 k | None -> 4 * n in
  let evaluations = ref 0 and reopts = ref 0 and improved = ref 0 and kicks_done = ref 0 in
  let measure =
    if n <= Dp_table.max_relations then begin
      let eval = Eval.make model catalog graph in
      fun plan ->
        incr evaluations;
        Eval.cost eval plan
    end
    else fun plan ->
      incr evaluations;
      Plan.cost model catalog graph plan
  in
  let start_plan =
    match start with
    | Some p ->
      if not (Relset.equal (Plan.relations p) (Relset.full n)) then
        invalid_arg "Hybrid.optimize: start plan must cover all catalog relations";
      p
    | None -> if n = 1 then Plan.Leaf 0 else fst (Greedy.optimize model catalog graph)
  in
  if n <= 2 then begin
    let cost = measure start_plan in
    ( (start_plan, cost),
      { windows_reoptimized = 0; windows_improved = 0; kicks = 0; plans_evaluated = !evaluations } )
  end
  else begin
    let reoptimize_window plan path =
      incr reopts;
      let subtree = subtree_at plan path in
      match reoptimize_units ?arena model catalog graph (decompose ~window subtree) with
      | None -> None
      | Some subtree' -> Some (replace_at plan path subtree')
    in
    (* Sweep every internal node (root included) until no composite
       re-arrangement improves the plan.  The interrupt probe is polled
       between window re-optimizations — the unit of work here, each at
       most [O(3^window)] — and the search stops gracefully at the
       current best rather than discarding it. *)
    let rec descend plan cost =
      let rec try_windows = function
        | [] -> (plan, cost)
        | _ :: _ when interrupt () -> (plan, cost)
        | path :: rest -> (
          match reoptimize_window plan path with
          | None -> try_windows rest
          | Some candidate ->
            let candidate_cost = measure candidate in
            if candidate_cost < cost *. (1.0 -. 1e-12) then begin
              incr improved;
              descend candidate candidate_cost
            end
            else try_windows rest)
      in
      try_windows (internal_paths plan)
    in
    let kick plan =
      let p = ref plan in
      for _ = 1 to kick_strength do
        p := Transform.random_neighbor rng !p
      done;
      !p
    in
    let chain_plan = ref start_plan and chain_cost = ref (measure start_plan) in
    let plan, cost = descend !chain_plan !chain_cost in
    chain_plan := plan;
    chain_cost := cost;
    let remaining_kicks = ref kick_budget in
    while !remaining_kicks > 0 && not (interrupt ()) do
      decr remaining_kicks;
      incr kicks_done;
      let perturbed = kick !chain_plan in
      let plan, cost = descend perturbed (measure perturbed) in
      (* Chained-local-optimization acceptance: keep the chain's best. *)
      if cost < !chain_cost then begin
        chain_plan := plan;
        chain_cost := cost
      end
    done;
    ( (!chain_plan, !chain_cost),
      {
        windows_reoptimized = !reopts;
        windows_improved = !improved;
        kicks = !kicks_done;
        plans_evaluated = !evaluations;
      } )
  end
