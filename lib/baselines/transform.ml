module Plan = Blitz_plan.Plan
module Relset = Blitz_bitset.Relset
module Rng = Blitz_util.Rng

type rule = Commute | Assoc_left | Assoc_right | Exchange_left | Exchange_right

let all_rules = [ Commute; Assoc_left; Assoc_right; Exchange_left; Exchange_right ]

let apply_root rule plan =
  match (rule, plan) with
  | Commute, Plan.Join (a, b) -> Some (Plan.Join (b, a))
  | Assoc_left, Plan.Join (Plan.Join (a, b), c) -> Some (Plan.Join (a, Plan.Join (b, c)))
  | Assoc_right, Plan.Join (a, Plan.Join (b, c)) -> Some (Plan.Join (Plan.Join (a, b), c))
  | Exchange_left, Plan.Join (Plan.Join (a, b), c) -> Some (Plan.Join (Plan.Join (a, c), b))
  | Exchange_right, Plan.Join (a, Plan.Join (b, c)) -> Some (Plan.Join (b, Plan.Join (a, c)))
  | (Commute | Assoc_left | Assoc_right | Exchange_left | Exchange_right), _ -> None

let rec apply_at plan ~path rule =
  match path with
  | [] -> apply_root rule plan
  | dir :: rest -> (
    match plan with
    | Plan.Leaf _ -> None
    | Plan.Join (l, r) ->
      if dir = 0 then
        match apply_at l ~path:rest rule with
        | Some l' -> Some (Plan.Join (l', r))
        | None -> None
      else
        match apply_at r ~path:rest rule with
        | Some r' -> Some (Plan.Join (l, r'))
        | None -> None)

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

let neighbors plan =
  List.concat_map
    (fun path -> List.filter_map (fun rule -> apply_at plan ~path rule) all_rules)
    (internal_paths plan)

let random_neighbor rng plan =
  let paths = Array.of_list (internal_paths plan) in
  if Array.length paths = 0 then invalid_arg "Transform.random_neighbor: plan has no joins";
  let path = Rng.pick rng paths in
  let applicable =
    Array.of_list (List.filter_map (fun rule -> apply_at plan ~path rule) all_rules)
  in
  (* Commute always applies, so the list is never empty. *)
  Rng.pick rng applicable

let random_bushy rng s =
  if Relset.is_empty s then invalid_arg "Transform.random_bushy: empty set";
  let rec go s =
    if Relset.is_singleton s then Plan.Leaf (Relset.min_elt s)
    else begin
      let rec split () =
        let lhs = Relset.fold (fun acc i -> if Rng.bool rng then Relset.add acc i else acc) Relset.empty s in
        if Relset.is_empty lhs || Relset.equal lhs s then split () else lhs
      in
      let lhs = split () in
      Plan.Join (go lhs, go (Relset.diff s lhs))
    end
  in
  go s

let random_leftdeep rng s =
  if Relset.is_empty s then invalid_arg "Transform.random_leftdeep: empty set";
  let order = Array.of_list (Relset.to_list s) in
  Rng.shuffle rng order;
  let acc = ref (Plan.Leaf order.(0)) in
  for i = 1 to Array.length order - 1 do
    acc := Plan.Join (!acc, Plan.Leaf order.(i))
  done;
  !acc
