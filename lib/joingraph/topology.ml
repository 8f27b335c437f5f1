type t = Chain | Cycle_plus of int | Star | Clique | Grid of int * int

let name = function
  | Chain -> "chain"
  | Cycle_plus k -> Printf.sprintf "cycle+%d" k
  | Star -> "star"
  | Clique -> "clique"
  | Grid (r, c) -> Printf.sprintf "grid:%dx%d" r c

let of_string s =
  let fail () = Error (Printf.sprintf "unknown topology %S (expected chain|cycle+K|star|clique|grid:RxC)" s) in
  match s with
  | "chain" -> Ok Chain
  | "star" -> Ok Star
  | "clique" -> Ok Clique
  | _ ->
    if String.length s > 6 && String.sub s 0 6 = "cycle+" then
      match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some k when k >= 0 -> Ok (Cycle_plus k)
      | Some _ | None -> fail ()
    else if String.length s > 5 && String.sub s 0 5 = "grid:" then
      match String.split_on_char 'x' (String.sub s 5 (String.length s - 5)) with
      | [ r; c ] -> (
        match (int_of_string_opt r, int_of_string_opt c) with
        | Some r, Some c when r > 0 && c > 0 -> Ok (Grid (r, c))
        | _ -> fail ())
      | _ -> fail ()
    else fail ()

let all_paper = [ Chain; Cycle_plus 3; Star; Clique ]

let chain_order n =
  if n < 1 then invalid_arg "Topology.chain_order: n must be positive";
  let half = (n + 1) / 2 in
  Array.init n (fun pos -> if pos land 1 = 0 then pos / 2 else half + (pos / 2))

let chain_edges n =
  let order = chain_order n in
  List.init (n - 1) (fun pos -> (order.(pos), order.(pos + 1)))

let check topo ~n =
  if n < 2 then invalid_arg "Topology.edge_list: need at least two relations";
  match topo with
  | Cycle_plus k ->
    if k < 0 then invalid_arg "Topology.edge_list: negative cross-edge count";
    (* The closing edge joins the chain's two endpoints; cross-edge i
       joins chain positions i and n-1-i.  Requiring n >= 2k+3 keeps the
       cross-edges distinct from each other and from the cycle. *)
    if n < (2 * k) + 3 then
      invalid_arg
        (Printf.sprintf "Topology.edge_list: cycle+%d needs at least %d relations" k ((2 * k) + 3))
  | Grid (r, c) ->
    if r * c <> n then
      invalid_arg
        (Printf.sprintf "Topology.edge_list: grid %dx%d does not cover %d relations" r c n)
  | Chain | Star | Clique -> ()

let edge_list topo ~n =
  check topo ~n;
  match topo with
  | Chain -> chain_edges n
  | Cycle_plus k ->
    let order = chain_order n in
    let cross = List.init k (fun i -> (order.(i + 1), order.(n - 2 - i))) in
    ((order.(0), order.(n - 1)) :: cross) @ chain_edges n
  | Star -> List.init (n - 1) (fun i -> (i, n - 1))
  | Clique ->
    List.concat (List.init n (fun i -> List.init (n - 1 - i) (fun d -> (i, i + 1 + d))))
  | Grid (r, c) ->
    let at row col = (row * c) + col in
    let horiz =
      List.concat (List.init r (fun row -> List.init (c - 1) (fun col -> (at row col, at row (col + 1)))))
    in
    let vert =
      List.concat (List.init (r - 1) (fun row -> List.init c (fun col -> (at row col, at (row + 1) col))))
    in
    horiz @ vert

let grid ~n =
  if n < 1 then invalid_arg "Topology.grid: n must be positive";
  (* Most-square factorization: the largest divisor at most sqrt n
     becomes the row count.  Deterministic; primes degenerate to 1xn
     (a chain), which the caller can detect via the constructor. *)
  let r = ref 1 in
  let d = ref 1 in
  while !d * !d <= n do
    if n mod !d = 0 then r := !d;
    incr d
  done;
  Grid (!r, n / !r)

let assign_selectivities catalog unweighted ~result_card =
  let module C = Blitz_catalog.Catalog in
  let n = C.n catalog in
  let k = List.length unweighted in
  if k = 0 then Join_graph.no_predicates ~n
  else begin
    if result_card <= 0.0 then invalid_arg "Topology.assign_selectivities: result_card must be positive";
    let deg = Array.make n 0 in
    List.iter
      (fun (i, j) ->
        deg.(i) <- deg.(i) + 1;
        deg.(j) <- deg.(j) + 1)
      unweighted;
    (* Each relation's |R_i|^(-1/k_i), once; relations on no edge are
       never read. *)
    let factor =
      Array.init n (fun i ->
          if deg.(i) = 0 then 1.0 else C.card catalog i ** (-1.0 /. float_of_int deg.(i)))
    in
    let mu_factor = result_card ** (1.0 /. float_of_int k) in
    let weighted =
      List.map (fun (i, j) -> (i, j, mu_factor *. factor.(i) *. factor.(j))) unweighted
    in
    (* The appendix formula can overshoot 1 for small cardinalities with a
       large target result; clamp rather than reject — the workload stays
       usable and a selectivity of 1 just means "no predicate effect". *)
    Join_graph.of_edges ~above_one:`Clamp ~n weighted
  end

let make topo catalog =
  let module C = Blitz_catalog.Catalog in
  let n = C.n catalog in
  assign_selectivities catalog (edge_list topo ~n) ~result_card:(C.geometric_mean_card catalog)
