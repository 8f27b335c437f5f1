type position = { line : int; column : int }

type column_ref = { table : string; column : string; ref_pos : position }

type predicate = {
  lhs : column_ref;
  rhs : column_ref;
  selectivity : float option;
  pred_pos : position;
}

type from_item = { table_name : string; alias : string option; from_pos : position }

type select = {
  from : from_item list;
  where : predicate list;
  order_by : column_ref option;
  select_pos : position;
}

type statement =
  | Create_table of { name : string; cardinality : float; create_pos : position }
  | Select of select

let binding_name item = match item.alias with Some a -> a | None -> item.table_name

let pp_position ppf p = Format.fprintf ppf "line %d, column %d" p.line p.column
