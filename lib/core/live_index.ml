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
    (* Ranks 1 .. n have regions; [region.(n + 1)] ends the last one. *)
    region = Array.make (Dp_table.max_relations + 2) 0;
    len = Array.make (Dp_table.max_relations + 1) 0;
    cum = Array.make (Dp_table.max_relations * stride) 0;
  }

let off = create ()

(* Subsets hold at most [Dp_table.max_relations] = 24 relations, so two
   12-bit lookups find the top one. *)
let top_table =
  Bytes.init 4096 (fun i ->
      let rec go i acc = if i <= 1 then acc else go (i lsr 1) (acc + 1) in
      Char.chr (go i 0))

let estimate_bytes ~n = if n > 60 then max_int else 4 * (1 lsl max n 0)

let resident_bytes t = 4 * Bigarray.Array1.dim t.ids

let[@inline] set (ids : buf) i s = Bigarray.Array1.unsafe_set ids i (Int32.of_int s)
let[@inline] get_slot (ids : buf) i = Int32.to_int (Bigarray.Array1.unsafe_get ids i)

let start t ~n ~index =
  if t == off then invalid_arg "Live_index.start: the inert index";
  if n < 1 || n > Dp_table.max_relations then
    invalid_arg (Printf.sprintf "Live_index.start: n = %d outside [1, %d]" n Dp_table.max_relations);
  let slots = 1 lsl n in
  if Bigarray.Array1.dim t.ids < slots then
    t.ids <- Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout slots;
  t.on <- index;
  t.n <- n;
  (* Rank r's region holds the C(n, r) subsets of r relations. *)
  let c = ref 1 in
  t.region.(1) <- 0;
  for r = 1 to n do
    c := !c * (n - r + 1) / r;
    t.region.(r + 1) <- t.region.(r) + !c
  done;
  Array.fill t.len 0 (Array.length t.len) 0;
  if index then begin
    (* Rank 1 is every singleton below relation n - 1, all live: b + 1
       of them lie below 2^(b+1). *)
    for i = 0 to n - 2 do
      set t.ids i (1 lsl i)
    done;
    t.len.(1) <- n - 1;
    for b = 0 to n - 2 do
      t.cum.((b * stride) + 1) <- 0;
      t.cum.((b * stride) + 2) <- b + 1
    done
  end

let length t k = t.len.(k)

let get t k m = get_slot t.ids (Array.unsafe_get t.region k + m)

let stage t (tbl : Dp_table.t) ~k ~m s =
  if t.on && not (s < 1 lsl (t.n - 1) && Array.unsafe_get tbl.cost s < Float.infinity) then
    set t.ids (Array.unsafe_get t.region k + m) 0

let close_rank t k =
  if t.on && k < t.n then begin
    let ids = t.ids and base = t.region.(k) in
    let kept = ref 0 in
    for m = 0 to t.len.(k) - 1 do
      let s = get_slot ids (base + m) in
      if s <> 0 then begin
        set ids (base + !kept) s;
        incr kept
      end
    done;
    t.len.(k) <- !kept;
    let below = ref 0 in
    for b = 0 to t.n - 2 do
      let limit = 1 lsl (b + 1) in
      while !below < !kept && get_slot ids (base + !below) < limit do
        incr below
      done;
      t.cum.((b * stride) + k + 1) <- t.cum.((b * stride) + k) + !below
    done
  end
