let check_nonempty name a =
  if Array.length a = 0 then invalid_arg (Printf.sprintf "Stats.%s: empty input" name)

let mean a =
  check_nonempty "mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let geometric_mean a =
  check_nonempty "geometric_mean" a;
  let sum_logs =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive sample";
        acc +. log x)
      0.0 a
  in
  exp (sum_logs /. float_of_int (Array.length a))

let min_max a =
  check_nonempty "min_max" a;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (a.(0), a.(0))
    a

let ranks a =
  let n = Array.length a in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare a.(i) a.(j)) order;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    (* Average the ranks of a run of ties. *)
    let j = ref !i in
    while !j + 1 < n && a.(order.(!j + 1)) = a.(order.(!i)) do
      incr j
    done;
    let avg = float_of_int (!i + !j + 2) /. 2.0 in
    for k = !i to !j do
      r.(order.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let pearson x y =
  let mx = mean x and my = mean y in
  let num = ref 0.0 and dx = ref 0.0 and dy = ref 0.0 in
  Array.iteri
    (fun i xi ->
      let a = xi -. mx and b = y.(i) -. my in
      num := !num +. (a *. b);
      dx := !dx +. (a *. a);
      dy := !dy +. (b *. b))
    x;
  if !dx = 0.0 || !dy = 0.0 then 0.0 else !num /. sqrt (!dx *. !dy)

let spearman x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Stats.spearman: length mismatch";
  if n < 2 then invalid_arg "Stats.spearman: need at least two points";
  pearson (ranks x) (ranks y)
