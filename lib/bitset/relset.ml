type t = int

let max_width = 62

let empty = 0

let check_index i =
  if i < 0 || i >= max_width then
    invalid_arg (Printf.sprintf "Relset: relation index %d outside [0, %d)" i max_width)

let singleton i =
  check_index i;
  1 lsl i

let full n =
  if n < 0 || n > max_width then
    invalid_arg (Printf.sprintf "Relset.full: width %d outside [0, %d]" n max_width);
  if n = 0 then 0 else (1 lsl n) - 1

let add s i = s lor singleton i
let of_list l = List.fold_left add empty l

let is_empty s = s = 0
let mem s i = i >= 0 && i < max_width && s land (1 lsl i) <> 0
let equal (a : t) (b : t) = a = b
let disjoint a b = a land b = 0

(* Kernighan's bit-clearing loop; set cardinalities here are small
   (<= max_width) and this is never in the optimizer's inner loop. *)
let cardinal s =
  let rec go acc s = if s = 0 then acc else go (acc + 1) (s land (s - 1)) in
  go 0 s

let is_singleton s = s <> 0 && s land (s - 1) = 0

let lowest_bit s = s land -s

let min_elt s =
  if s = 0 then invalid_arg "Relset.min_elt: empty set";
  (* Count trailing zeros of the isolated lowest bit by binary chunks. *)
  let x = ref (lowest_bit s) and i = ref 0 in
  if !x land 0xFFFFFFFF = 0 then begin i := !i + 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin i := !i + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin i := !i + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin i := !i + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin i := !i + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then i := !i + 1;
  !i

let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b

let iter f s =
  let rest = ref s in
  while !rest <> 0 do
    f (min_elt !rest);
    rest := !rest land (!rest - 1)
  done

let fold f init s =
  let acc = ref init and rest = ref s in
  while !rest <> 0 do
    acc := f !acc (min_elt !rest);
    rest := !rest land (!rest - 1)
  done;
  !acc

let to_list s = List.rev (fold (fun acc i -> i :: acc) [] s)

let exists p s = fold (fun acc i -> acc || p i) false s

(* Section 4.2's successor trick: the next subset of [within] after [l]
   in dilated counting order, in constant time. *)
let succ_subset ~within l = within land (l - within)

let iter_proper_subsets f s =
  let l = ref (lowest_bit s) in
  while !l <> s do
    f !l;
    l := succ_subset ~within:s !l
  done

let next_same_cardinality v =
  if v = 0 then invalid_arg "Relset.next_same_cardinality: zero has no successor";
  let c = v land -v in
  let r = v + c in
  r lor (((v lxor r) / c) lsr 2)

let iter_subsets_of_size ~n ~k f =
  if k < 0 || n < 0 || n > max_width then invalid_arg "Relset.iter_subsets_of_size";
  if k = 0 then f empty
  else if k <= n then begin
    let stop = 1 lsl n in
    let s = ref (full k) in
    while !s < stop do
      f !s;
      s := next_same_cardinality !s
    done
  end

let pp ?names () ppf s =
  let name i =
    match names with
    | Some a when i < Array.length a -> a.(i)
    | Some _ | None -> string_of_int i
  in
  Format.pp_print_char ppf '{';
  let first = ref true in
  iter
    (fun i ->
      if not !first then Format.pp_print_string ppf ", ";
      first := false;
      Format.pp_print_string ppf (name i))
    s;
  Format.pp_print_char ppf '}'

let to_string ?names s = Format.asprintf "%a" (pp ?names ()) s
