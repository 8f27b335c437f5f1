type t = {
  names : string array;
  cards : float array;
  by_name : (string, int) Hashtbl.t;
}

let max_relations = 62 (* Relset.max_width; kept literal to avoid a dependency cycle *)

type error =
  | Empty_catalog
  | Too_many_relations of int
  | Empty_relation_name of int
  | Duplicate_relation_name of string
  | Bad_cardinality of { name : string; card : float }

let error_message =
  let fmt x = Blitz_util.Err.format ~scope:"Catalog.of_list" x in
  function
  | Empty_catalog -> fmt "empty catalog"
  | Too_many_relations len -> fmt "%d relations exceed the %d-bit set width" len max_relations
  | Empty_relation_name _ -> fmt "empty relation name"
  | Duplicate_relation_name nm -> fmt "duplicate relation name %S" nm
  | Bad_cardinality { name; card } -> fmt "relation %S has invalid cardinality %g" name card

let of_list_result entries =
  let len = List.length entries in
  if len = 0 then Error Empty_catalog
  else if len > max_relations then Error (Too_many_relations len)
  else begin
    let names = Array.make len "" and cards = Array.make len 0.0 in
    let by_name = Hashtbl.create (2 * len) in
    let rec fill i = function
      | [] -> Ok { names; cards; by_name }
      | (nm, cd) :: rest ->
        if nm = "" then Error (Empty_relation_name i)
        else if Hashtbl.mem by_name nm then Error (Duplicate_relation_name nm)
        else if not (Float.is_finite cd) || cd <= 0.0 then
          Error (Bad_cardinality { name = nm; card = cd })
        else begin
          names.(i) <- nm;
          cards.(i) <- cd;
          Hashtbl.add by_name nm i;
          fill (i + 1) rest
        end
    in
    fill 0 entries
  end

let of_list entries = Blitz_util.Err.get_with ~to_message:error_message (of_list_result entries)

(* The appendix's names, built once: a generated problem names every
   relation. *)
let default_names = Array.init max_relations (Printf.sprintf "R%d")

let of_cards_result cards =
  let len = Array.length cards in
  if len > max_relations then Error (Too_many_relations len)
  else of_list_result (List.init len (fun i -> (default_names.(i), cards.(i))))

let of_cards cards = Blitz_util.Err.get_with ~to_message:error_message (of_cards_result cards)

let uniform ~n ~card = of_cards (Array.make n card)

let n t = Array.length t.cards

let check_index t i =
  if i < 0 || i >= n t then
    invalid_arg (Printf.sprintf "Catalog: relation index %d outside [0, %d)" i (n t))

let card t i =
  check_index t i;
  t.cards.(i)

let card_into t i dst k =
  check_index t i;
  dst.(k) <- t.cards.(i)

let cards t = Array.copy t.cards

let name t i =
  check_index t i;
  t.names.(i)

let names t = Array.copy t.names

let index_of_name t nm = Hashtbl.find_opt t.by_name nm

let geometric_mean_card t = Blitz_util.Stats.geometric_mean t.cards

let variability t =
  let mu = geometric_mean_card t in
  if mu <= 1.0 then 0.0
  else
    let smallest = fst (Blitz_util.Stats.min_max t.cards) in
    1.0 -. (log smallest /. log mu)
