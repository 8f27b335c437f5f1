type error = { message : string; error_pos : Ast.position }

let pp_error ppf e = Format.fprintf ppf "%s (%a)" e.message Ast.pp_position e.error_pos

exception Parse_error of error

let fail pos fmt = Format.kasprintf (fun message -> raise (Parse_error { message; error_pos = pos })) fmt

type state = { mutable tokens : Lexer.spanned list; mutable last_pos : Ast.position }

let peek st = match st.tokens with [] -> None | spanned :: _ -> Some spanned

let next st =
  match st.tokens with
  | [] -> fail st.last_pos "unexpected end of input"
  | spanned :: rest ->
    st.tokens <- rest;
    st.last_pos <- spanned.Lexer.pos;
    spanned

let expect st token =
  let spanned = next st in
  if spanned.Lexer.token <> token then
    fail spanned.Lexer.pos "expected %s but found %s" (Lexer.token_name token)
      (Lexer.token_name spanned.Lexer.token)

let expect_ident st =
  let spanned = next st in
  match spanned.Lexer.token with
  | Lexer.Ident name -> (name, spanned.Lexer.pos)
  | other -> fail spanned.Lexer.pos "expected an identifier but found %s" (Lexer.token_name other)

let expect_number st =
  let spanned = next st in
  match spanned.Lexer.token with
  | Lexer.Number x -> (x, spanned.Lexer.pos)
  | other -> fail spanned.Lexer.pos "expected a number but found %s" (Lexer.token_name other)

let parse_column_ref st =
  let table, ref_pos = expect_ident st in
  expect st Lexer.Dot;
  let column, _ = expect_ident st in
  { Ast.table; column; ref_pos }

let parse_predicate st =
  let lhs = parse_column_ref st in
  expect st Lexer.Equal;
  let rhs = parse_column_ref st in
  let selectivity =
    match peek st with
    | Some { Lexer.token = Lexer.Lbrace; _ } ->
      ignore (next st);
      let s, spos = expect_number st in
      if s <= 0.0 then fail spos "selectivity must be positive, got %g" s;
      expect st Lexer.Rbrace;
      Some s
    | Some _ | None -> None
  in
  { Ast.lhs; rhs; selectivity; pred_pos = lhs.Ast.ref_pos }

let parse_from_item st =
  let table_name, from_pos = expect_ident st in
  let alias =
    match peek st with
    | Some { Lexer.token = Lexer.Kw_as; _ } ->
      ignore (next st);
      Some (fst (expect_ident st))
    | Some { Lexer.token = Lexer.Ident _; _ } -> Some (fst (expect_ident st))
    | Some _ | None -> None
  in
  { Ast.table_name; alias; from_pos }

let rec parse_separated st parse_one sep =
  let first = parse_one st in
  match peek st with
  | Some { Lexer.token; _ } when token = sep ->
    ignore (next st);
    first :: parse_separated st parse_one sep
  | Some _ | None -> [ first ]

let parse_select_body st select_pos =
  expect st Lexer.Star;
  expect st Lexer.Kw_from;
  let from = parse_separated st parse_from_item Lexer.Comma in
  let where =
    match peek st with
    | Some { Lexer.token = Lexer.Kw_where; _ } ->
      ignore (next st);
      parse_separated st parse_predicate Lexer.Kw_and
    | Some _ | None -> []
  in
  let order_by =
    match peek st with
    | Some { Lexer.token = Lexer.Kw_order; _ } ->
      ignore (next st);
      expect st Lexer.Kw_by;
      Some (parse_column_ref st)
    | Some _ | None -> None
  in
  { Ast.from; where; order_by; select_pos }

let parse_statement st =
  let spanned = next st in
  match spanned.Lexer.token with
  | Lexer.Kw_create ->
    expect st Lexer.Kw_table;
    let name, _ = expect_ident st in
    expect st Lexer.Lparen;
    expect st Lexer.Kw_cardinality;
    let cardinality, cpos = expect_number st in
    if cardinality <= 0.0 then fail cpos "cardinality must be positive, got %g" cardinality;
    expect st Lexer.Rparen;
    expect st Lexer.Semicolon;
    Ast.Create_table { name; cardinality; create_pos = spanned.Lexer.pos }
  | Lexer.Kw_select ->
    let select = parse_select_body st spanned.Lexer.pos in
    expect st Lexer.Semicolon;
    Ast.Select select
  | other ->
    fail spanned.Lexer.pos "expected CREATE or SELECT but found %s" (Lexer.token_name other)

let with_tokens text k =
  match Lexer.tokenize text with
  | Error { Lexer.message; error_pos } -> Error { message; error_pos }
  | Ok tokens -> (
    let st = { tokens; last_pos = { Ast.line = 1; column = 1 } } in
    match k st with v -> Ok v | exception Parse_error e -> Error e)

let parse_script text =
  with_tokens text (fun st ->
      let rec go acc =
        match peek st with None -> List.rev acc | Some _ -> go (parse_statement st :: acc)
      in
      go [])
