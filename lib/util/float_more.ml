let approx_equal ?(rel = 1e-9) ?(abs = 1e-12) x y =
  if x = y then true (* covers equal infinities and exact matches *)
  else if Float.is_nan x || Float.is_nan y then false
  else
    let diff = Float.abs (x -. y) in
    diff <= abs || diff <= rel *. Float.max (Float.abs x) (Float.abs y)

(* Map a float to a point on the integer number line where consecutive
   representable floats are consecutive integers ("ordered" IEEE-754
   bits): negative floats have their payload bits flipped so the mapping
   is monotone across zero.  The distance between two mapped values is
   then the count of representable floats strictly between them plus
   one — the units-in-the-last-place separation. *)
let ordered_bits x =
  let bits = Int64.bits_of_float x in
  if Int64.compare bits 0L < 0 then Int64.sub Int64.min_int bits else bits

let ulps_apart x y =
  if Float.is_nan x || Float.is_nan y then None
  else
    let d = Int64.sub (ordered_bits x) (ordered_bits y) in
    let d = Int64.abs d in
    if Int64.compare d 0L < 0 then None (* Int64.abs min_int *)
    else Some d

let within_ulps ?(ulps = 8) x y =
  match ulps_apart x y with
  | None -> false
  | Some d -> Int64.compare d (Int64.of_int ulps) <= 0

let pow_int x k =
  if k < 0 then invalid_arg "Float_more.pow_int: negative exponent";
  let rec go acc base k =
    if k = 0 then acc
    else if k land 1 = 1 then go (acc *. base) (base *. base) (k lsr 1)
    else go acc (base *. base) (k lsr 1)
  in
  go 1.0 x k

let pp_engineering ppf x =
  if Float.is_nan x then Format.pp_print_string ppf "nan"
  else if x = Float.infinity then Format.pp_print_string ppf "inf"
  else if x = Float.neg_infinity then Format.pp_print_string ppf "-inf"
  else
    let ax = Float.abs x in
    if ax >= 1e7 || (ax > 0.0 && ax < 1e-4) then Format.fprintf ppf "%.4g" x
    else if Float.is_integer x then Format.fprintf ppf "%.0f" x
    else Format.fprintf ppf "%.4g" x

let to_compact_string x = Format.asprintf "%a" pp_engineering x
