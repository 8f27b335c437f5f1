type t = { name : string; columns : string array; rows : int array array }

let create ~name ~columns ~rows =
  if name = "" then invalid_arg "Table.create: empty table name";
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      if c = "" then invalid_arg "Table.create: empty column name";
      if Hashtbl.mem seen c then invalid_arg (Printf.sprintf "Table.create: duplicate column %S" c);
      Hashtbl.add seen c ())
    columns;
  let width = Array.length columns in
  Array.iteri
    (fun i r ->
      if Array.length r <> width then
        invalid_arg (Printf.sprintf "Table.create: row %d has width %d, expected %d" i (Array.length r) width))
    rows;
  { name; columns; rows }

let name t = t.name
let n_rows t = Array.length t.rows
let n_columns t = Array.length t.columns
let columns t = Array.copy t.columns

let row t i =
  if i < 0 || i >= n_rows t then invalid_arg "Table.row: index out of range";
  Array.copy t.rows.(i)

let get t ~row ~col =
  if row < 0 || row >= n_rows t || col < 0 || col >= n_columns t then
    invalid_arg "Table.get: out of range";
  t.rows.(row).(col)
