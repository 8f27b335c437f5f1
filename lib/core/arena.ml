type t = {
  mutable table : Dp_table.t option;
  mutable index : Live_index.t option;
  counters : Counters.t;
  mutable acquires : int;
  mutable grows : int;
}

let create () =
  { table = None; index = None; counters = Counters.create (); acquires = 0; grows = 0 }

let counters t = t.counters

let acquire t ?(with_pi_fan = true) n =
  t.acquires <- t.acquires + 1;
  let table =
    match t.table with
    | Some tbl when Dp_table.capacity tbl >= n ->
      let tbl = if with_pi_fan then Dp_table.add_pi_fan tbl else tbl in
      Dp_table.view tbl ~n
    | prev ->
      (* Grow to the new high-water mark.  The fan column is sticky: once
         any query in the session needed it, keep it so a later join query
         never has to reallocate behind a product query's back. *)
      let keep_fan =
        with_pi_fan
        || (match prev with Some p -> Dp_table.has_pi_fan p | None -> false)
      in
      t.grows <- t.grows + 1;
      Dp_table.create ~with_pi_fan:keep_fan n
  in
  t.table <- Some table;
  table

let index t =
  match t.index with
  | Some idx -> idx
  | None ->
    let idx = Live_index.create () in
    t.index <- Some idx;
    idx

let index_bytes t = match t.index with None -> 0 | Some idx -> Live_index.resident_bytes idx

let resident_bytes t =
  index_bytes t
  +
  match t.table with
  | None -> 0
  | Some tbl ->
    Dp_table.estimate_bytes
      ~with_pi_fan:(Dp_table.has_pi_fan tbl)
      ~n:(Dp_table.capacity tbl) ()

(* A blitzsplit pass takes the subset lists beside the table, so its
   quote charges both at the would-be capacity; any other call leaves
   the lists as they are. *)
let bytes_after t ?(with_index = true) ~n () =
  let index =
    if with_index then max (index_bytes t) (Live_index.estimate_bytes ~n) else index_bytes t
  in
  let table =
    let cap = match t.table with None -> n | Some tbl -> max n (Dp_table.capacity tbl) in
    Dp_table.estimate_bytes ~n:cap ()
  in
  if table = max_int then max_int else table + index

let clear t =
  t.table <- None;
  t.index <- None

let acquires t = t.acquires
let grows t = t.grows
