type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable on : bool;
  mutable n : int;
  mutable ids : buf;
  region : int array;
  len : int array;
  cum : int array;
}

let stride = Dp_table.max_relations + 1

let empty_buf () = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout 0

let create () =
  {
    on = false;
    n = 0;
    ids = empty_buf ();
    (* Ranks 1 .. n-1 have regions; [region.(n)] ends the last one. *)
    region = Array.make (Dp_table.max_relations + 1) 0;
    len = Array.make (Dp_table.max_relations + 1) 0;
    cum = Array.make (Dp_table.max_relations * stride) 0;
  }

let off = create ()

(* Subsets hold at most [Dp_table.max_relations] = 24 relations, so two
   12-bit lookups find the top one and a SWAR sum counts them. *)
let top_table =
  Bytes.init 4096 (fun i ->
      let rec go i acc = if i <= 1 then acc else go (i lsr 1) (acc + 1) in
      Char.chr (go i 0))

let[@inline] top x =
  if x < 4096 then Char.code (Bytes.unsafe_get top_table x)
  else 12 + Char.code (Bytes.unsafe_get top_table (x lsr 12))

let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x555555) in
  let x = (x land 0x333333) + ((x lsr 2) land 0x333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f in
  ((x * 0x010101) lsr 16) land 0xff

let estimate_bytes ~n = if n > 60 then max_int else 4 * (1 lsl (max n 1 - 1))

let resident_bytes t = 4 * Bigarray.Array1.dim t.ids

let hub t = if t.on then 1 lsl (t.n - 1) else 0

let[@inline] set (ids : buf) i s = Bigarray.Array1.unsafe_set ids i (Int32.of_int s)
let[@inline] get (ids : buf) i = Int32.to_int (Bigarray.Array1.unsafe_get ids i)

let append t r s =
  set t.ids (t.region.(r) + t.len.(r)) s;
  t.len.(r) <- t.len.(r) + 1

let seal t p =
  if t.on then begin
    let row = (top p - 1) * stride in
    t.cum.(row + 1) <- 0;
    for k = 2 to t.n do
      t.cum.(row + k) <- t.cum.(row + k - 1) + t.len.(k - 1)
    done;
    if p < hub t then append t 1 p
  end

let start t ~n ~all_singletons =
  if t == off then invalid_arg "Live_index.start: the inert index";
  if n < 1 || n > Dp_table.max_relations then
    invalid_arg (Printf.sprintf "Live_index.start: n = %d outside [1, %d]" n Dp_table.max_relations);
  let slots = 1 lsl (n - 1) in
  if Bigarray.Array1.dim t.ids < slots then
    t.ids <- Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout slots;
  t.on <- true;
  t.n <- n;
  (* Rank r's region holds the C(n-1, r) subsets of r relations below
     relation n - 1. *)
  let c = ref 1 in
  t.region.(1) <- 0;
  for r = 1 to n - 1 do
    c := !c * (n - r) / r;
    t.region.(r + 1) <- t.region.(r) + !c
  done;
  Array.fill t.len 0 (Array.length t.len) 0;
  if n >= 2 then begin
    append t 1 1;
    seal t 2;
    if all_singletons then
      for b = 1 to n - 2 do
        seal t (1 lsl (b + 1))
      done
  end

let note t s = append t (popcount s) s

let stage t (tbl : Dp_table.t) ~k ~m s =
  if s < hub t then
    set t.ids (Array.unsafe_get t.region k + m)
      (if Array.unsafe_get tbl.cost s < Float.infinity then s else 0)

let close_rank t k =
  if t.on && k < t.n then begin
    let ids = t.ids and base = t.region.(k) in
    let kept = ref 0 in
    for m = 0 to t.region.(k + 1) - base - 1 do
      let s = get ids (base + m) in
      if s <> 0 then begin
        set ids (base + !kept) s;
        incr kept
      end
    done;
    t.len.(k) <- !kept;
    let below = ref 0 in
    for b = 0 to t.n - 2 do
      let limit = 1 lsl (b + 1) in
      while !below < !kept && get ids (base + !below) < limit do
        incr below
      done;
      t.cum.((b * stride) + k + 1) <- t.cum.((b * stride) + k) + !below
    done
  end

