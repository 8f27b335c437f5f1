let render ~header rows =
  let cols = Array.length header in
  Array.iteri
    (fun i row ->
      if Array.length row <> cols then
        invalid_arg (Printf.sprintf "Ascii_table.render: row %d has %d cells, expected %d" i (Array.length row) cols))
    rows;
  let widths = Array.map String.length header in
  Array.iter
    (fun row -> Array.iteri (fun c cell -> widths.(c) <- max widths.(c) (String.length cell)) row)
    rows;
  let buf = Buffer.create 1024 in
  (* The first column (a label) is left-aligned, the rest (numbers)
     right-aligned. *)
  let pad c cell =
    let gap = String.make (widths.(c) - String.length cell) ' ' in
    if c = 0 then cell ^ gap else gap ^ cell
  in
  let emit_row row =
    Array.iteri
      (fun c cell ->
        if c > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad c cell))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  Array.iteri
    (fun c _ ->
      if c > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (String.make widths.(c) '-'))
    header;
  Buffer.add_char buf '\n';
  Array.iter emit_row rows;
  Buffer.contents buf

let print ~header rows = print_string (render ~header rows)
