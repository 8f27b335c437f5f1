module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model

type t = Leaf of int | Join of t * t

let relations plan =
  let rec go acc = function
    | Leaf i ->
      let s = Relset.singleton i in
      if not (Relset.disjoint acc s) then
        invalid_arg (Printf.sprintf "Plan.relations: relation %d appears twice" i);
      Relset.union acc s
    | Join (l, r) -> go (go acc l) r
  in
  go Relset.empty plan

let rec leaf_count = function
  | Leaf _ -> 1
  | Join (l, r) -> leaf_count l + leaf_count r

let rec join_count = function
  | Leaf _ -> 0
  | Join (l, r) -> 1 + join_count l + join_count r

let rec depth = function
  | Leaf _ -> 0
  | Join (l, r) -> 1 + max (depth l) (depth r)

let rec is_left_deep = function
  | Leaf _ -> true
  | Join (l, Leaf _) -> is_left_deep l
  | Join (_, Join _) -> false

let validate ~n plan =
  let seen = ref Relset.empty in
  let rec go = function
    | Leaf i ->
      if i < 0 || i >= n then Error (Printf.sprintf "leaf index %d outside [0, %d)" i n)
      else if Relset.mem !seen i then Error (Printf.sprintf "relation %d appears twice" i)
      else begin
        seen := Relset.add !seen i;
        Ok ()
      end
    | Join (l, r) -> ( match go l with Ok () -> go r | Error _ as e -> e)
  in
  go plan

let rec equal a b =
  match (a, b) with
  | Leaf i, Leaf j -> i = j
  | Join (al, ar), Join (bl, br) -> equal al bl && equal ar br
  | (Leaf _ | Join _), _ -> false

let rec map_leaves f = function
  | Leaf i -> Leaf (f i)
  | Join (l, r) -> Join (map_leaves f l, map_leaves f r)

let rec normalize = function
  | Leaf _ as p -> p
  | Join (l, r) ->
    let l = normalize l and r = normalize r in
    if Relset.min_elt (relations l) <= Relset.min_elt (relations r) then Join (l, r)
    else Join (r, l)

let enumerate s =
  let rec go s =
    if Relset.is_empty s then invalid_arg "Plan.enumerate: empty set"
    else if Relset.is_singleton s then [ Leaf (Relset.min_elt s) ]
    else begin
      (* Pin the minimum relation to the left operand so that each
         unordered split is produced exactly once, already normalized. *)
      let low = Relset.lowest_bit s in
      let rest = Relset.diff s low in
      let acc = ref [] in
      let split extra_lhs =
        let lhs = Relset.union low extra_lhs in
        let rhs = Relset.diff s lhs in
        if not (Relset.is_empty rhs) then
          List.iter
            (fun pl -> List.iter (fun pr -> acc := Join (pl, pr) :: !acc) (go rhs))
            (go lhs)
      in
      split Relset.empty;
      Relset.iter_proper_subsets split rest;
      !acc
    end
  in
  go s

let count_plans n =
  if n < 1 then invalid_arg "Plan.count_plans: n must be positive";
  (* (2n-3)!! unordered binary trees with n labeled leaves. *)
  let acc = ref 1.0 in
  let odd = ref 3 in
  for _ = 3 to n do
    acc := !acc *. float_of_int !odd;
    odd := !odd + 2
  done;
  !acc

let cardinality catalog graph plan = Join_graph.join_cardinality catalog graph (relations plan)

let cost model catalog graph plan =
  let rec go = function
    | Leaf i -> (0.0, Catalog.card catalog i, Relset.singleton i)
    | Join (l, r) ->
      let lcost, lcard, lset = go l in
      let rcost, rcard, rset = go r in
      let set = Relset.union lset rset in
      let out = lcard *. rcard *. Join_graph.pi_span graph lset rset in
      (lcost +. rcost +. Cost_model.kappa model ~out ~lcard ~rcard, out, set)
  in
  let total, _, _ = go plan in
  total

let cartesian_join_count graph plan =
  let rec go = function
    | Leaf i -> (0, Relset.singleton i)
    | Join (l, r) ->
      let ln, lset = go l in
      let rn, rset = go r in
      let here = if Join_graph.crosses graph lset rset then 0 else 1 in
      (ln + rn + here, Relset.union lset rset)
  in
  fst (go plan)

type annotated =
  | Ann_leaf of { rel : int; card : float }
  | Ann_join of {
      lhs : annotated;
      rhs : annotated;
      card : float;
      algorithm : string;
      join_cost : float;
      subtree_cost : float;
      cartesian : bool;
    }

let annotate ~algorithms catalog graph plan =
  if algorithms = [] then invalid_arg "Plan.annotate: empty algorithm list";
  let rec go = function
    | Leaf i ->
      let card = Catalog.card catalog i in
      (Ann_leaf { rel = i; card }, card, Relset.singleton i, 0.0)
    | Join (l, r) ->
      let la, lcard, lset, lcost = go l in
      let ra, rcard, rset, rcost = go r in
      let out = lcard *. rcard *. Join_graph.pi_span graph lset rset in
      let best_name, best_cost =
        List.fold_left
          (fun (bn, bc) (name, model) ->
            let c = Cost_model.kappa model ~out ~lcard ~rcard in
            if c < bc then (name, c) else (bn, bc))
          ("", Float.infinity) algorithms
      in
      let subtree_cost = lcost +. rcost +. best_cost in
      let node =
        Ann_join
          {
            lhs = la;
            rhs = ra;
            card = out;
            algorithm = best_name;
            join_cost = best_cost;
            subtree_cost;
            cartesian = not (Join_graph.crosses graph lset rset);
          }
      in
      (node, out, Relset.union lset rset, subtree_cost)
  in
  let node, _, _, _ = go plan in
  node

let annotated_cost = function
  | Ann_leaf _ -> 0.0
  | Ann_join j -> j.subtree_cost

let leaf_name names i =
  if i < Array.length names then names.(i) else string_of_int i

let to_compact_string ?names plan =
  let buf = Buffer.create 64 in
  let name i = match names with Some a -> leaf_name a i | None -> Printf.sprintf "R%d" i in
  let rec go = function
    | Leaf i -> Buffer.add_string buf (name i)
    | Join (l, r) ->
      Buffer.add_char buf '(';
      go l;
      Buffer.add_string buf " x ";
      go r;
      Buffer.add_char buf ')'
  in
  go plan;
  Buffer.contents buf

let of_compact_string ~names text =
  let index_of nm =
    let found = ref None in
    Array.iteri (fun i candidate -> if candidate = nm && !found = None then found := Some i) names;
    !found
  in
  let len = String.length text in
  let pos = ref 0 in
  let error msg = Error (Printf.sprintf "%s at offset %d in %S" msg !pos text) in
  let skip_spaces () =
    while !pos < len && text.[!pos] = ' ' do
      incr pos
    done
  in
  let is_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  let rec parse_expr () =
    skip_spaces ();
    if !pos >= len then error "unexpected end of input"
    else if text.[!pos] = '(' then begin
      incr pos;
      match parse_expr () with
      | Error _ as e -> e
      | Ok lhs -> (
        skip_spaces ();
        if !pos >= len || text.[!pos] <> 'x' then error "expected 'x'"
        else begin
          incr pos;
          match parse_expr () with
          | Error _ as e -> e
          | Ok rhs ->
            skip_spaces ();
            if !pos >= len || text.[!pos] <> ')' then error "expected ')'"
            else begin
              incr pos;
              Ok (Join (lhs, rhs))
            end
        end)
    end
    else begin
      let start = !pos in
      while !pos < len && is_name_char text.[!pos] do
        incr pos
      done;
      if !pos = start then error "expected a relation name"
      else
        let nm = String.sub text start (!pos - start) in
        match index_of nm with
        | Some i -> Ok (Leaf i)
        | None -> error (Printf.sprintf "unknown relation %S" nm)
    end
  in
  match parse_expr () with
  | Error _ as e -> e
  | Ok plan ->
    skip_spaces ();
    if !pos <> len then error "trailing input" else Ok plan

let pp_annotated ?names () ppf annotated =
  let name i = match names with Some a -> leaf_name a i | None -> Printf.sprintf "R%d" i in
  let pe = Blitz_util.Float_more.pp_engineering in
  let rec go indent node =
    Format.pp_print_string ppf indent;
    match node with
    | Ann_leaf { rel; card } -> Format.fprintf ppf "scan %s  card=%a@," (name rel) pe card
    | Ann_join { lhs; rhs; card; algorithm; join_cost; subtree_cost; cartesian } ->
      Format.fprintf ppf "join[%s]%s  card=%a  join_cost=%a  subtree_cost=%a@," algorithm
        (if cartesian then " (cartesian)" else "")
        pe card pe join_cost pe subtree_cost;
      go (indent ^ "  ") lhs;
      go (indent ^ "  ") rhs
  in
  Format.fprintf ppf "@[<v>";
  go "" annotated;
  Format.fprintf ppf "@]"
