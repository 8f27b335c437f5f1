(* SQL front end: lexer, parser, binder. *)

module Lexer = Blitz_sql.Lexer
module Parser = Blitz_sql.Parser
module Ast = Blitz_sql.Ast
module Binder = Blitz_sql.Binder
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph

let check_float = Test_helpers.check_float

let script =
  "CREATE TABLE orders (CARDINALITY 150000);\n\
   CREATE TABLE lineitem (CARDINALITY 600000);\n\
   CREATE TABLE customer (CARDINALITY 15000);\n\
   -- the query under test\n\
   SELECT * FROM orders o, lineitem l, customer c\n\
   WHERE o.okey = l.okey {0.0000066}\n\
   AND o.ckey = c.ckey;\n"

let test_lexer_tokens () =
  match Lexer.tokenize "SELECT * FROM t WHERE a.x = b.y {0.5};" with
  | Error e -> Alcotest.failf "lex error: %s" e.Lexer.message
  | Ok tokens ->
    Alcotest.(check int) "token count" 16 (List.length tokens);
    (match tokens with
    | { Lexer.token = Lexer.Kw_select; pos } :: _ ->
      Alcotest.(check int) "line" 1 pos.Ast.line;
      Alcotest.(check int) "column" 1 pos.Ast.column
    | _ -> Alcotest.fail "expected SELECT first")

let test_lexer_positions_and_comments () =
  match Lexer.tokenize "-- comment line\n  SELECT" with
  | Error e -> Alcotest.failf "lex error: %s" e.Lexer.message
  | Ok [ { Lexer.token = Lexer.Kw_select; pos } ] ->
    Alcotest.(check int) "line 2" 2 pos.Ast.line;
    Alcotest.(check int) "column 3" 3 pos.Ast.column
  | Ok _ -> Alcotest.fail "expected exactly one token"

let test_lexer_errors () =
  (match Lexer.tokenize "SELECT @" with
  | Error e ->
    Alcotest.(check string) "message" "unexpected character '@'" e.Lexer.message;
    Alcotest.(check int) "column" 8 e.Lexer.error_pos.Ast.column
  | Ok _ -> Alcotest.fail "expected error");
  match Lexer.tokenize "1.2.3" with
  | Error e -> Alcotest.(check string) "bad number" "malformed number \"1.2.3\"" e.Lexer.message
  | Ok _ -> Alcotest.fail "expected error"

let test_parse_script () =
  match Parser.parse_script script with
  | Error e -> Alcotest.failf "parse error: %s" e.Parser.message
  | Ok statements -> (
    Alcotest.(check int) "statement count" 4 (List.length statements);
    match List.nth statements 3 with
    | Ast.Select { from; where; _ } ->
      Alcotest.(check int) "from items" 3 (List.length from);
      Alcotest.(check (list string)) "aliases" [ "o"; "l"; "c" ]
        (List.map Ast.binding_name from);
      Alcotest.(check int) "predicates" 2 (List.length where);
      let p1 = List.hd where in
      Alcotest.(check (option (float 1e-12))) "annotated selectivity" (Some 0.0000066)
        p1.Ast.selectivity;
      let p2 = List.nth where 1 in
      Alcotest.(check (option (float 1e-12))) "default selectivity" None p2.Ast.selectivity
    | Ast.Create_table _ -> Alcotest.fail "expected SELECT")

let test_parse_errors () =
  let expect_error text fragment =
    match Parser.parse_script text with
    | Ok _ -> Alcotest.failf "expected parse failure for %S" text
    | Error e ->
      let msg = Format.asprintf "%a" Parser.pp_error e in
      let contains =
        let nl = String.length fragment and dl = String.length msg in
        let rec scan i = i + nl <= dl && (String.sub msg i nl = fragment || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (Printf.sprintf "%S mentions %S" msg fragment) true contains
  in
  expect_error "CREATE TABLE t CARDINALITY 5;" "'('";
  expect_error "SELECT * FROM;" "identifier";
  expect_error "SELECT * FROM a WHERE a.x = ;" "identifier";
  expect_error "CREATE TABLE t (CARDINALITY 0);" "cardinality must be positive";
  expect_error "SELECT * FROM a WHERE a.x = b.y {0};" "selectivity must be positive";
  expect_error "SELECT * FROM a" "unexpected end of input";
  expect_error "DROP TABLE t;" "expected CREATE or SELECT"

let test_bind_script () =
  match Binder.parse_and_bind script with
  | Error e -> Alcotest.fail e
  | Ok [ q ] ->
    Alcotest.(check int) "3 relations" 3 (Catalog.n q.Binder.catalog);
    Alcotest.(check (array string)) "binding names" [| "o"; "l"; "c" |]
      (Catalog.names q.Binder.catalog);
    check_float "orders card" 150000.0 (Catalog.card q.Binder.catalog 0);
    check_float "annotated sel" 0.0000066 (Join_graph.selectivity q.Binder.graph 0 1);
    (* default: 1 / max(150000, 15000) *)
    check_float ~rel:1e-12 "default sel" (1.0 /. 150000.0)
      (Join_graph.selectivity q.Binder.graph 0 2);
    Alcotest.(check int) "2 edges" 2 (Join_graph.edge_count q.Binder.graph)
  | Ok qs -> Alcotest.failf "expected one query, got %d" (List.length qs)

let test_bind_self_join_via_alias () =
  let text =
    "CREATE TABLE person (CARDINALITY 1000);\n\
     SELECT * FROM person p1, person p2 WHERE p1.boss = p2.id;"
  in
  match Binder.parse_and_bind text with
  | Error e -> Alcotest.fail e
  | Ok [ q ] ->
    Alcotest.(check int) "two relations" 2 (Catalog.n q.Binder.catalog);
    check_float "both cards" (Catalog.card q.Binder.catalog 0) (Catalog.card q.Binder.catalog 1)
  | Ok _ -> Alcotest.fail "expected one query"

let test_bind_conjoined_predicates () =
  let text =
    "CREATE TABLE a (CARDINALITY 100);\n\
     CREATE TABLE b (CARDINALITY 100);\n\
     SELECT * FROM a, b WHERE a.x = b.x {0.1} AND a.y = b.y {0.2};"
  in
  match Binder.parse_and_bind text with
  | Error e -> Alcotest.fail e
  | Ok [ q ] ->
    check_float ~rel:1e-12 "selectivities multiply" 0.02 (Join_graph.selectivity q.Binder.graph 0 1)
  | Ok _ -> Alcotest.fail "expected one query"

let test_bind_errors () =
  let expect_error text fragment =
    match Binder.parse_and_bind text with
    | Ok _ -> Alcotest.failf "expected binding failure for %S" text
    | Error msg ->
      let contains =
        let nl = String.length fragment and dl = String.length msg in
        let rec scan i = i + nl <= dl && (String.sub msg i nl = fragment || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (Printf.sprintf "%S mentions %S" msg fragment) true contains
  in
  expect_error "SELECT * FROM nowhere;" "unknown table";
  expect_error "CREATE TABLE t (CARDINALITY 5);\nSELECT * FROM t, t;" "duplicate relation name";
  expect_error "CREATE TABLE t (CARDINALITY 5);\nSELECT * FROM t WHERE t.a = u.b;"
    "not in the FROM clause";
  expect_error "CREATE TABLE t (CARDINALITY 5);\nSELECT * FROM t WHERE t.a = t.b;"
    "relates \"t\" to itself";
  expect_error "CREATE TABLE t (CARDINALITY 5);\nCREATE TABLE t (CARDINALITY 6);"
    "already defined";
  expect_error "CREATE TABLE a (CARDINALITY 5);\nCREATE TABLE b (CARDINALITY 5);\n\
                SELECT * FROM a, b WHERE a.x = b.x {1.5};" "exceeds 1"

(* Statistics the parser's syntactic checks let through (overflowing
   literals) must surface as positioned binding errors — never as an
   untyped [Invalid_argument] escaping from catalog or graph
   construction. *)
let test_bind_bad_statistics () =
  let expect_error text fragment =
    match Binder.parse_and_bind text with
    | Ok _ -> Alcotest.failf "expected binding failure for %S" text
    | Error msg ->
      let contains =
        let nl = String.length fragment and dl = String.length msg in
        let rec scan i = i + nl <= dl && (String.sub msg i nl = fragment || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (Printf.sprintf "%S mentions %S" msg fragment) true contains
    | exception e -> Alcotest.failf "binder raised %s for %S" (Printexc.to_string e) text
  in
  (* 1e400 overflows to infinity: positive, so the parser admits it. *)
  expect_error "CREATE TABLE t (CARDINALITY 1e400);\nSELECT * FROM t;" "invalid cardinality inf";
  expect_error
    "CREATE TABLE a (CARDINALITY 5);\nCREATE TABLE b (CARDINALITY 5);\n\
     SELECT * FROM a, b WHERE a.x = b.x {1e400};"
    "exceeds 1"

let test_order_by () =
  let text =
    "CREATE TABLE a (CARDINALITY 100);\n\
     CREATE TABLE b (CARDINALITY 200);\n\
     CREATE TABLE c (CARDINALITY 300);\n\
     SELECT * FROM a, b, c WHERE a.x = b.x {0.1} AND b.y = c.y {0.2} ORDER BY c.y;"
  in
  match Binder.parse_and_bind text with
  | Error e -> Alcotest.fail e
  | Ok [ q ] -> (
    match q.Binder.required_order with
    | None -> Alcotest.fail "expected a required order"
    | Some e ->
      (* Edge ids index Join_graph.edges (sorted i<j): (0,1) then (1,2);
         ORDER BY c.y names the b-c predicate. *)
      Alcotest.(check int) "edge id" 1 e;
      let module O = Blitz_core.Blitzsplit_orders in
      let r = O.optimize ~required_order:e q.Binder.catalog q.Binder.graph in
      Alcotest.(check (option int)) "plan delivers it" (Some e) (O.order_of r.O.plan))
  | Ok _ -> Alcotest.fail "expected one query"

let test_order_by_errors () =
  let expect_error text fragment =
    match Binder.parse_and_bind text with
    | Ok _ -> Alcotest.failf "expected binding failure for %S" text
    | Error msg ->
      let contains =
        let nl = String.length fragment and dl = String.length msg in
        let rec scan i = i + nl <= dl && (String.sub msg i nl = fragment || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (Printf.sprintf "%S mentions %S" msg fragment) true contains
  in
  expect_error
    "CREATE TABLE a (CARDINALITY 5);\nCREATE TABLE b (CARDINALITY 5);\n\
     SELECT * FROM a, b WHERE a.x = b.x ORDER BY a.nonjoin;"
    "only join attributes";
  expect_error
    "CREATE TABLE a (CARDINALITY 5);\nSELECT * FROM a ORDER BY z.col;"
    "not in the FROM clause"

(* End-to-end: bind then optimize. *)
let test_bind_and_optimize () =
  match Binder.parse_and_bind script with
  | Error e -> Alcotest.fail e
  | Ok [ q ] ->
    let module Blitzsplit = Blitz_core.Blitzsplit in
    let r = Blitzsplit.optimize_join Blitz_cost.Cost_model.kdnl q.Binder.catalog q.Binder.graph in
    Alcotest.(check bool) "feasible" true (Blitzsplit.feasible r);
    let plan = Blitzsplit.best_plan_exn r in
    Alcotest.(check bool) "valid" true
      (Result.is_ok (Blitz_plan.Plan.validate ~n:3 plan))
  | Ok _ -> Alcotest.fail "expected one query"

let prop_parser_never_crashes =
  QCheck2.Test.make ~count:500 ~name:"parser totality on arbitrary strings"
    QCheck2.Gen.(string_size ~gen:printable (int_bound 60))
    (fun text ->
      match Parser.parse_script text with Ok _ | Error _ -> true)

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer positions and comments" `Quick test_lexer_positions_and_comments;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "parse a script" `Quick test_parse_script;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "bind a script" `Quick test_bind_script;
    Alcotest.test_case "self-join via alias" `Quick test_bind_self_join_via_alias;
    Alcotest.test_case "conjoined predicates multiply" `Quick test_bind_conjoined_predicates;
    Alcotest.test_case "binder errors" `Quick test_bind_errors;
    Alcotest.test_case "binder rejects bad statistics with positions" `Quick
      test_bind_bad_statistics;
    Alcotest.test_case "ORDER BY binds to an edge" `Quick test_order_by;
    Alcotest.test_case "ORDER BY errors" `Quick test_order_by_errors;
    Alcotest.test_case "bind and optimize end-to-end" `Quick test_bind_and_optimize;
    QCheck_alcotest.to_alcotest prop_parser_never_crashes;
  ]
