type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

(* SplitMix64 output function (Steele, Lea & Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = int64 t }

(* Next 62-bit non-negative integer. *)
let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec go () =
    let r = bits t in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then go () else v
  in
  go ()

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  r /. 9007199254740992.0 *. bound (* 2^53 *)

let bool t = Int64.logand (int64 t) 1L = 1L

let log_uniform t ~lo ~hi =
  if lo <= 0.0 || hi <= 0.0 then invalid_arg "Rng.log_uniform: bounds must be positive";
  if lo >= hi then invalid_arg "Rng.log_uniform: lo must be < hi";
  exp (log lo +. float t (log hi -. log lo))

let gaussian t =
  (* Box–Muller, discarding the second variate: one extra uniform per
     draw is cheaper than caching the spare variate in [t]. *)
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
