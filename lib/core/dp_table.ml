module Relset = Blitz_bitset.Relset
module Plan = Blitz_plan.Plan

type t = {
  n : int;
  card : float array;
  cost : float array;
  best_lhs : int array;
  pi_fan : float array;
  aux : float array;
}

let max_relations = 24

let create ?(with_pi_fan = true) n =
  if n < 1 || n > max_relations then
    invalid_arg (Printf.sprintf "Dp_table.create: n = %d outside [1, %d]" n max_relations);
  let slots = 1 lsl n in
  {
    n;
    card = Array.make slots 0.0;
    cost = Array.make slots Float.infinity;
    best_lhs = Array.make slots 0;
    (* The fan column is read only on the join path; the Cartesian-product
       optimizer leaves it out entirely, saving 8 * 2^n bytes. *)
    pi_fan = (if with_pi_fan then Array.make slots 1.0 else [||]);
    aux = Array.make slots 0.0;
  }

let has_pi_fan t = Array.length t.pi_fan > 0

let capacity t =
  (* Slot arrays are always 2^cap long; recover cap rather than widening
     the (publicly pattern-matched) record with another field. *)
  let len = Array.length t.card in
  let rec log2 k acc = if k <= 1 then acc else log2 (k lsr 1) (acc + 1) in
  log2 len 0

let estimate_bytes ?(with_pi_fan = true) ~n () =
  (* 4 (or 5, with the fan column) unboxed 8-byte columns of 2^n slots.
     Saturate instead of overflowing for absurd n. *)
  let per_slot = if with_pi_fan then 40 else 32 in
  if n >= 50 then max_int else per_slot * (1 lsl n)

let view t ~n =
  if n < 1 || n > capacity t then
    invalid_arg (Printf.sprintf "Dp_table.view: n = %d outside [1, %d]" n (capacity t));
  { t with n }

let add_pi_fan t =
  if has_pi_fan t then t
  else { t with pi_fan = Array.make (Array.length t.card) 1.0 }

let size t = 1 lsl t.n

let full_set t = Relset.full t.n

let check_set t s =
  if s <= 0 || s >= size t then
    invalid_arg (Printf.sprintf "Dp_table: set %d outside table of %d relations" s t.n)

let card t s = check_set t s; t.card.(s)
let cost t s = check_set t s; t.cost.(s)
let best_lhs t s = check_set t s; t.best_lhs.(s)

let extract_plan t s =
  check_set t s;
  let rec go s =
    if Relset.is_singleton s then Plan.Leaf (Relset.min_elt s)
    else begin
      let lhs = t.best_lhs.(s) in
      if lhs = 0 then raise Exit;
      Plan.Join (go lhs, go (s lxor lhs))
    end
  in
  match go s with plan -> Some plan | exception Exit -> None

let dump ?names t =
  let module F = Blitz_util.Float_more in
  let set_name s = Relset.to_string ?names s in
  let subsets = ref [] in
  for s = size t - 1 downto 1 do
    subsets := s :: !subsets
  done;
  let by_table_order a b =
    let ca = Relset.cardinal a and cb = Relset.cardinal b in
    if ca <> cb then compare ca cb else compare (Relset.to_list a) (Relset.to_list b)
  in
  let ordered = List.sort by_table_order !subsets in
  let rows =
    List.map
      (fun s ->
        let best = if t.best_lhs.(s) = 0 then "none" else set_name t.best_lhs.(s) in
        [| set_name s; F.to_compact_string t.card.(s); best; F.to_compact_string t.cost.(s) |])
      ordered
  in
  Blitz_util.Ascii_table.render
    ~header:[| "Relation Set"; "Cardinality"; "Best LHS"; "Cost" |]
    (Array.of_list rows)
