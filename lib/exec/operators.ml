type key = { left_col : int; right_col : int }

type work = {
  mutable tuple_visits : int;
  mutable comparisons : int;
  mutable output_rows : int;
}

let fresh_work () = { tuple_visits = 0; comparisons = 0; output_rows = 0 }

let sink : work option ref = ref None

let set_work_sink w = sink := w

let visit n = match !sink with Some w -> w.tuple_visits <- w.tuple_visits + n | None -> ()
let compared n = match !sink with Some w -> w.comparisons <- w.comparisons + n | None -> ()
let emitted n = match !sink with Some w -> w.output_rows <- w.output_rows + n | None -> ()

let matches lrow rrow keys =
  compared (List.length keys);
  List.for_all (fun { left_col; right_col } -> lrow.(left_col) = rrow.(right_col)) keys

let output lrow rrow = Array.append lrow rrow

let nested_loop_join ~left ~right ~keys =
  let acc = ref [] in
  Array.iter
    (fun lrow ->
      visit (Array.length right);
      Array.iter (fun rrow -> if matches lrow rrow keys then acc := output lrow rrow :: !acc) right)
    left;
  let rows = Array.of_list (List.rev !acc) in
  emitted (Array.length rows);
  rows

let key_of_row row cols = List.map (fun c -> row.(c)) cols

let hash_join ~left ~right ~keys =
  let lcols = List.map (fun k -> k.left_col) keys in
  let rcols = List.map (fun k -> k.right_col) keys in
  let index = Hashtbl.create (max 16 (Array.length left)) in
  visit (Array.length left + Array.length right);
  Array.iter (fun lrow -> Hashtbl.add index (key_of_row lrow lcols) lrow) left;
  let acc = ref [] in
  Array.iter
    (fun rrow ->
      (* Hashtbl.find_all returns most-recent first; order is irrelevant
         to the multiset semantics checked by the tests. *)
      List.iter (fun lrow -> acc := output lrow rrow :: !acc) (Hashtbl.find_all index (key_of_row rrow rcols)))
    right;
  let rows = Array.of_list (List.rev !acc) in
  emitted (Array.length rows);
  rows

let sort_merge_join ~left ~right ~keys =
  let lcols = List.map (fun k -> k.left_col) keys in
  let rcols = List.map (fun k -> k.right_col) keys in
  let lsorted = Array.copy left and rsorted = Array.copy right in
  let by cols a b =
    compared 1;
    compare (key_of_row a cols) (key_of_row b cols)
  in
  Array.sort (by lcols) lsorted;
  Array.sort (by rcols) rsorted;
  visit (Array.length lsorted + Array.length rsorted);
  let nl = Array.length lsorted and nr = Array.length rsorted in
  let acc = ref [] in
  let li = ref 0 and ri = ref 0 in
  while !li < nl && !ri < nr do
    let lkey = key_of_row lsorted.(!li) lcols and rkey = key_of_row rsorted.(!ri) rcols in
    let c = compare lkey rkey in
    if c < 0 then incr li
    else if c > 0 then incr ri
    else begin
      (* Find the extent of the equal-key group on both sides. *)
      let lend = ref !li in
      while !lend < nl && key_of_row lsorted.(!lend) lcols = lkey do
        incr lend
      done;
      let rend = ref !ri in
      while !rend < nr && key_of_row rsorted.(!rend) rcols = rkey do
        incr rend
      done;
      for i = !li to !lend - 1 do
        for j = !ri to !rend - 1 do
          acc := output lsorted.(i) rsorted.(j) :: !acc
        done
      done;
      li := !lend;
      ri := !rend
    end
  done;
  let rows = Array.of_list (List.rev !acc) in
  emitted (Array.length rows);
  rows

let same_multiset a b =
  if Array.length a <> Array.length b then false
  else begin
    let sa = Array.copy a and sb = Array.copy b in
    Array.sort compare sa;
    Array.sort compare sb;
    sa = sb
  end
