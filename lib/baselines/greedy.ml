module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

(* Cardinalities are maintained incrementally via Equation (7):
   card(a ∪ b) = card(a) * card(b) * pi_span(a, b) — no 2^n table, so
   greedy scales to any number of relations.

   The forest lives in three arrays whose first [m] slots hold the [m]
   remaining components: the merged one goes first and the survivors
   keep their order.  Each round scans the pairs (i, j), i < j, in that
   order and keeps the first with the smallest score, so ties and the
   plan's operand order are settled by position alone.  The scan keeps
   its best in local refs, so a pair costs no allocation but the span's
   returned float.  A pair scores by its output cardinality, so kappa
   is priced only for the pair a round merges. *)
let optimize model catalog graph =
  let n = Catalog.n catalog in
  if Join_graph.n graph <> n then invalid_arg "Greedy.optimize: graph/catalog size mismatch";
  let plans = Array.init n (fun i -> Plan.Leaf i) in
  let sets = Array.init n (fun i -> 1 lsl i) in
  let cards = Array.init n (Catalog.card catalog) in
  let total_cost = ref 0.0 in
  for m = n downto 2 do
    (* A NaN best loses to any score, as the first pair must. *)
    let best_out = ref Float.nan and bi = ref 0 and bj = ref 0 in
    for i = 0 to m - 2 do
      for j = i + 1 to m - 1 do
        let out = cards.(i) *. cards.(j) *. Join_graph.pi_span graph sets.(i) sets.(j) in
        if not (!best_out <= out) then begin
          best_out := out;
          bi := i;
          bj := j
        end
      done
    done;
    let i = !bi and j = !bj in
    total_cost :=
      !total_cost +. Cost_model.kappa model ~out:!best_out ~lcard:cards.(i) ~rcard:cards.(j);
    let plan = Plan.Join (plans.(i), plans.(j)) and set = sets.(i) lor sets.(j) in
    (* Close the gap at j, then shift the slots before i up one. *)
    Array.blit plans (j + 1) plans j (m - 1 - j);
    Array.blit sets (j + 1) sets j (m - 1 - j);
    Array.blit cards (j + 1) cards j (m - 1 - j);
    Array.blit plans 0 plans 1 i;
    Array.blit sets 0 sets 1 i;
    Array.blit cards 0 cards 1 i;
    plans.(0) <- plan;
    sets.(0) <- set;
    cards.(0) <- !best_out
  done;
  (plans.(0), !total_cost)
