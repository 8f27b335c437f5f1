(* Unit and property tests for the bitset substrate (paper Section 4). *)

module Relset = Blitz_bitset.Relset

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_construction () =
  check "empty" 0 Relset.empty;
  check "singleton 0" 1 (Relset.singleton 0);
  check "singleton 4" 16 (Relset.singleton 4);
  check "full 4" 15 (Relset.full 4);
  check "full 0" 0 (Relset.full 0);
  check "of_list" 0b1011 (Relset.of_list [ 0; 1; 3 ]);
  check "of_list dup" 0b1011 (Relset.of_list [ 0; 1; 3; 1 ]);
  check "add" 0b101 (Relset.add (Relset.singleton 0) 2)

let test_construction_errors () =
  Alcotest.check_raises "singleton negative" (Invalid_argument "Relset: relation index -1 outside [0, 62)")
    (fun () -> ignore (Relset.singleton (-1)));
  Alcotest.check_raises "full too wide" (Invalid_argument "Relset.full: width 63 outside [0, 62]")
    (fun () -> ignore (Relset.full 63));
  Alcotest.check_raises "min_elt empty" (Invalid_argument "Relset.min_elt: empty set") (fun () ->
      ignore (Relset.min_elt Relset.empty))

let test_queries () =
  check_bool "is_empty empty" true (Relset.is_empty Relset.empty);
  check_bool "is_empty nonempty" false (Relset.is_empty 0b10);
  check_bool "mem yes" true (Relset.mem 0b1010 1);
  check_bool "mem no" false (Relset.mem 0b1010 0);
  check_bool "mem out of range" false (Relset.mem 0b1010 63);
  check_bool "disjoint yes" true (Relset.disjoint 0b1010 0b0101);
  check_bool "disjoint no" false (Relset.disjoint 0b1010 0b0010);
  check "cardinal empty" 0 (Relset.cardinal Relset.empty);
  check "cardinal" 3 (Relset.cardinal 0b1011);
  check "cardinal full" 20 (Relset.cardinal (Relset.full 20));
  check_bool "is_singleton yes" true (Relset.is_singleton 0b1000);
  check_bool "is_singleton no" false (Relset.is_singleton 0b1001);
  check_bool "is_singleton empty" false (Relset.is_singleton Relset.empty);
  check "min_elt" 1 (Relset.min_elt 0b1010);
  check "min_elt high" 40 (Relset.min_elt (Relset.singleton 40));
  check "lowest_bit" 0b10 (Relset.lowest_bit 0b1010);
  check "lowest_bit empty" 0 (Relset.lowest_bit Relset.empty)

let test_algebra () =
  check "union" 0b1110 (Relset.union 0b1010 0b0110);
  check "inter" 0b0010 (Relset.inter 0b1010 0b0110);
  check "diff" 0b1000 (Relset.diff 0b1010 0b0110)

let test_iteration () =
  Alcotest.(check (list int)) "to_list" [ 1; 3; 5 ] (Relset.to_list 0b101010);
  Alcotest.(check (list int)) "to_list empty" [] (Relset.to_list Relset.empty);
  check "fold sum" 9 (Relset.fold ( + ) 0 0b101010);
  check_bool "exists 5" true (Relset.exists (fun i -> i = 5) 0b101010);
  check_bool "exists 0" false (Relset.exists (fun i -> i = 0) 0b101010)

let proper_subsets s =
  let acc = ref [] in
  Relset.iter_proper_subsets (fun l -> acc := l :: !acc) s;
  List.rev !acc

let test_succ_subset_order () =
  (* Successive S_lhs values for S = 0b1011 must be the dilations of
     1, 2, ..., 2^|S|-2 in order: 1, 2, 3 and 4, 5, 6 with bit 2 moved
     to bit 3. *)
  let expected = [ 0b0001; 0b0010; 0b0011; 0b1000; 0b1001; 0b1010 ] in
  Alcotest.(check (list int)) "dilated counting order" expected (proper_subsets 0b1011)

let test_iter_subsets_small () =
  Alcotest.(check (list int)) "subsets of doubleton" [ 0b001; 0b100 ] (proper_subsets 0b101);
  Alcotest.(check (list int)) "subsets of singleton" [] (proper_subsets 0b100);
  Alcotest.(check (list int)) "subsets of empty" [] (proper_subsets 0)

let test_next_same_cardinality () =
  check "gosper 0b0011" 0b0101 (Relset.next_same_cardinality 0b0011);
  check "gosper 0b0101" 0b0110 (Relset.next_same_cardinality 0b0101);
  check "gosper 0b0110" 0b1001 (Relset.next_same_cardinality 0b0110);
  Alcotest.check_raises "gosper 0" (Invalid_argument "Relset.next_same_cardinality: zero has no successor")
    (fun () -> ignore (Relset.next_same_cardinality 0))

let test_iter_subsets_of_size () =
  let collect n k =
    let acc = ref [] in
    Relset.iter_subsets_of_size ~n ~k (fun s -> acc := s :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "4 choose 2" [ 3; 5; 6; 9; 10; 12 ] (collect 4 2);
  Alcotest.(check (list int)) "k=0" [ 0 ] (collect 4 0);
  Alcotest.(check (list int)) "k=n" [ 15 ] (collect 4 4);
  Alcotest.(check (list int)) "k>n" [] (collect 3 4);
  check "6 choose 3 count" 20 (List.length (collect 6 3))

let test_pp () =
  Alcotest.(check string) "numeric" "{0, 2}" (Relset.to_string 0b101);
  Alcotest.(check string)
    "named" "{A, C}"
    (Relset.to_string ~names:[| "A"; "B"; "C"; "D" |] 0b101);
  Alcotest.(check string) "empty" "{}" (Relset.to_string Relset.empty)

(* ---- Properties ---- *)

let small_set_gen =
  (* Sets over a 12-relation universe, non-empty. *)
  QCheck2.Gen.(map (fun bits -> 1 + bits) (int_bound 4094))

let prop_succ_enumerates_all =
  QCheck2.Test.make ~count:500 ~name:"succ trick enumerates all proper nonempty subsets once"
    small_set_gen (fun s ->
      let seen = Hashtbl.create 64 in
      Relset.iter_proper_subsets
        (fun l ->
          if Hashtbl.mem seen l then QCheck2.Test.fail_reportf "duplicate subset %d" l;
          if Relset.diff l s <> 0 || l = s then
            QCheck2.Test.fail_reportf "%d not a proper subset of %d" l s;
          if Relset.is_empty l then QCheck2.Test.fail_report "empty subset produced";
          Hashtbl.add seen l ())
        s;
      Hashtbl.length seen = (1 lsl Relset.cardinal s) - 2)

let prop_cardinal_matches_list =
  QCheck2.Test.make ~count:1000 ~name:"cardinal agrees with to_list length"
    QCheck2.Gen.(int_bound 0x3FFFFF)
    (fun s -> Relset.cardinal s = List.length (Relset.to_list s))

let prop_min_elt =
  QCheck2.Test.make ~count:1000 ~name:"min_elt agrees with to_list"
    QCheck2.Gen.(map (fun x -> 1 + x) (int_bound 0x3FFFFE))
    (fun s -> Relset.min_elt s = List.hd (Relset.to_list s))

let suite =
  [
    Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "construction errors" `Quick test_construction_errors;
    Alcotest.test_case "queries" `Quick test_queries;
    Alcotest.test_case "boolean algebra" `Quick test_algebra;
    Alcotest.test_case "member iteration" `Quick test_iteration;
    Alcotest.test_case "succ visits subsets in dilated order" `Quick test_succ_subset_order;
    Alcotest.test_case "proper subsets of tiny sets" `Quick test_iter_subsets_small;
    Alcotest.test_case "Gosper's hack" `Quick test_next_same_cardinality;
    Alcotest.test_case "subsets of a given size" `Quick test_iter_subsets_of_size;
    Alcotest.test_case "printing" `Quick test_pp;
    QCheck_alcotest.to_alcotest prop_succ_enumerates_all;
    QCheck_alcotest.to_alcotest prop_cardinal_matches_list;
    QCheck_alcotest.to_alcotest prop_min_elt;
  ]
