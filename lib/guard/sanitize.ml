module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph

type issue =
  | Empty_catalog
  | Too_many_relations of { count : int; limit : int }
  | Empty_relation_name of { index : int }
  | Duplicate_relation_name of { name : string }
  | Bad_cardinality of { name : string; card : float }
  | Cardinality_defaulted of { name : string; card : float; substitute : float }
  | Edge_endpoint_out_of_range of { i : int; j : int; n : int }
  | Self_edge of { i : int }
  | Duplicate_edge of { i : int; j : int }
  | Bad_selectivity of { i : int; j : int; sel : float }
  | Selectivity_above_one of { i : int; j : int; sel : float }
  | Size_mismatch of { catalog_n : int; graph_n : int }

let issue_message =
  let fmt x = Blitz_util.Err.format ~scope:"input" x in
  function
  | Empty_catalog -> fmt "no relations"
  | Too_many_relations { count; limit } -> fmt "%d relations exceed the %d-relation limit" count limit
  | Empty_relation_name { index } -> fmt "relation %d has an empty name" index
  | Duplicate_relation_name { name } -> fmt "duplicate relation name %S" name
  | Bad_cardinality { name; card } -> fmt "relation %S has invalid cardinality %g" name card
  | Cardinality_defaulted { name; card; substitute } ->
    fmt "relation %S: invalid cardinality %g defaulted to %g (fabricated)" name card substitute
  | Edge_endpoint_out_of_range { i; j; n } ->
    fmt "edge (%d, %d) has an endpoint outside [0, %d)" i j n
  | Self_edge { i } -> fmt "self-edge on relation %d" i
  | Duplicate_edge { i; j } -> fmt "duplicate edge (%d, %d)" i j
  | Bad_selectivity { i; j; sel } -> fmt "edge (%d, %d) has invalid selectivity %g" i j sel
  | Selectivity_above_one { i; j; sel } -> fmt "edge (%d, %d) has selectivity %g above 1" i j sel
  | Size_mismatch { catalog_n; graph_n } ->
    fmt "catalog has %d relations but the join graph covers %d" catalog_n graph_n

type policy = {
  clamp_selectivities : bool;
  drop_bad_edges : bool;
  default_cardinalities : bool;
}

let strict =
  { clamp_selectivities = false; drop_bad_edges = false; default_cardinalities = false }

let lenient = { clamp_selectivities = true; drop_bad_edges = true; default_cardinalities = true }

type clean = { catalog : Catalog.t; graph : Join_graph.t; repairs : issue list }

let max_relations = 62 (* Relset.max_width *)

let check ?(policy = lenient) ~relations ~edges () =
  let errors = ref [] and repairs = ref [] in
  let error i = errors := i :: !errors in
  let repair i = repairs := i :: !repairs in
  (* Relations: names are irreparable, but an invalid cardinality (NaN,
     ±infinity, zero, negative) can be defaulted when the policy says
     so.  There is no honest substitute — we use the geometric mean of
     the valid cardinalities (1 when none exist), the least-surprising
     stand-in on the paper's logarithmic cardinality axis — so the
     substitution is recorded as a [Cardinality_defaulted] repair and
     downstream consumers (the Guard cascade) treat the resulting stats
     as fabricated. *)
  let n = List.length relations in
  if n = 0 then error Empty_catalog;
  if n > max_relations then error (Too_many_relations { count = n; limit = max_relations });
  let bad_card card = not (Float.is_finite card) || card <= 0.0 in
  let substitute =
    let log_sum = ref 0.0 and valid = ref 0 in
    List.iter
      (fun (_, card) ->
        if not (bad_card card) then begin
          log_sum := !log_sum +. log card;
          incr valid
        end)
      relations;
    if !valid = 0 then 1.0 else exp (!log_sum /. float_of_int !valid)
  in
  let seen = Hashtbl.create 16 in
  let relations =
    List.mapi
      (fun index (name, card) ->
        if name = "" then error (Empty_relation_name { index })
        else if Hashtbl.mem seen name then error (Duplicate_relation_name { name })
        else Hashtbl.add seen name ();
        if bad_card card then
          if policy.default_cardinalities then begin
            repair (Cardinality_defaulted { name; card; substitute });
            (name, substitute)
          end
          else begin
            error (Bad_cardinality { name; card });
            (name, card)
          end
        else (name, card))
      relations
  in
  (* Edges: a defective predicate can be dropped (losing only pruning
     information — an absent edge is selectivity 1, always sound) and an
     overshooting selectivity clamped, when the policy allows. *)
  let seen_edges = Hashtbl.create 16 in
  let kept = ref [] in
  let drop issue = if policy.drop_bad_edges then repair issue else error issue in
  List.iter
    (fun (i, j, sel) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        drop (Edge_endpoint_out_of_range { i; j; n })
      else if i = j then drop (Self_edge { i })
      else if Hashtbl.mem seen_edges (min i j, max i j) then drop (Duplicate_edge { i; j })
      else if not (Float.is_finite sel) || sel <= 0.0 then drop (Bad_selectivity { i; j; sel })
      else begin
        Hashtbl.add seen_edges (min i j, max i j) ();
        if sel > 1.0 then
          if policy.clamp_selectivities then begin
            repair (Selectivity_above_one { i; j; sel });
            kept := (i, j, 1.0) :: !kept
          end
          else error (Selectivity_above_one { i; j; sel })
        else kept := (i, j, sel) :: !kept
      end)
    edges;
  match List.rev !errors with
  | _ :: _ as errors -> Error errors
  | [] ->
    let catalog = Catalog.of_list relations in
    let graph = Join_graph.of_edges ~n (List.rev !kept) in
    Ok { catalog; graph; repairs = List.rev !repairs }

let fabricated_stats issues =
  List.exists (function Cardinality_defaulted _ -> true | _ -> false) issues

let check_pair catalog graph =
  let catalog_n = Catalog.n catalog and graph_n = Join_graph.n graph in
  if catalog_n <> graph_n then Error [ Size_mismatch { catalog_n; graph_n } ]
  else Ok { catalog; graph; repairs = [] }
