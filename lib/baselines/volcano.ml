module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Relset = Blitz_bitset.Relset

type stats = {
  groups : int;
  expressions : int;
  rule_applications : int;
  duplicates_suppressed : int;
}

(* A logical expression in group [s] is identified by its left child
   group; the right child is [s lxor lhs]. *)
type memo = {
  exprs : (int, (int, unit) Hashtbl.t) Hashtbl.t;  (* group -> set of lhs *)
  listeners : (int, (int * int) list ref) Hashtbl.t;
      (* group -> expressions (s, lhs) whose lhs is this group and which
         must re-fire associativity when the group grows *)
  worklist : (int * int) Queue.t;
  mutable expressions : int;
  mutable rule_applications : int;
  mutable duplicates : int;
}

let group_exprs memo s =
  match Hashtbl.find_opt memo.exprs s with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    Hashtbl.add memo.exprs s tbl;
    tbl

let listeners_of memo g =
  match Hashtbl.find_opt memo.listeners g with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add memo.listeners g l;
    l

let rec add_expr memo s lhs =
  let tbl = group_exprs memo s in
  if Hashtbl.mem tbl lhs then memo.duplicates <- memo.duplicates + 1
  else begin
    Hashtbl.add tbl lhs ();
    memo.expressions <- memo.expressions + 1;
    Queue.add (s, lhs) memo.worklist;
    (* Late associativity: parents already listening on this group can
       now rotate through the new expression. *)
    List.iter
      (fun (parent_s, parent_lhs) -> fire_assoc memo parent_s parent_lhs lhs)
      !(listeners_of memo s)
  end

(* ((a, b), r) -> (a, (b, r)) where the parent expression is
   (parent_lhs, r) in group parent_s and (a, b) an expression of
   parent_lhs (given by its own lhs = a). *)
and fire_assoc memo parent_s parent_lhs a =
  memo.rule_applications <- memo.rule_applications + 1;
  let b = parent_lhs lxor a in
  let r = parent_s lxor parent_lhs in
  let br = b lor r in
  add_expr memo br b;
  add_expr memo parent_s a

let explore n initial_plan =
  let memo =
    {
      exprs = Hashtbl.create (1 lsl n);
      listeners = Hashtbl.create (1 lsl n);
      worklist = Queue.create ();
      expressions = 0;
      rule_applications = 0;
      duplicates = 0;
    }
  in
  (* Seed with the initial plan's joins. *)
  let rec seed = function
    | Plan.Leaf i -> Relset.singleton i
    | Plan.Join (l, r) ->
      let ls = seed l and rs = seed r in
      add_expr memo (Relset.union ls rs) ls;
      Relset.union ls rs
  in
  ignore (seed initial_plan);
  (* Closure. *)
  while not (Queue.is_empty memo.worklist) do
    let s, lhs = Queue.pop memo.worklist in
    (* Commutativity. *)
    memo.rule_applications <- memo.rule_applications + 1;
    add_expr memo s (s lxor lhs);
    (* Associativity through every current expression of the left child,
       and subscribe for future ones. *)
    if not (Relset.is_singleton lhs) then begin
      let subscribers = listeners_of memo lhs in
      subscribers := (s, lhs) :: !subscribers;
      Hashtbl.iter (fun a () -> fire_assoc memo s lhs a) (group_exprs memo lhs)
    end
  done;
  memo

let optimize model catalog graph =
  let n = Catalog.n catalog in
  if Join_graph.n graph <> n then invalid_arg "Volcano.optimize: graph/catalog size mismatch";
  let full = Relset.full n in
  if n = 1 then ((Plan.Leaf 0, 0.0), { groups = 1; expressions = 0; rule_applications = 0; duplicates_suppressed = 0 })
  else begin
    let initial =
      List.fold_left
        (fun acc i -> Plan.Join (acc, Plan.Leaf i))
        (Plan.Leaf 0)
        (List.init (n - 1) (fun i -> i + 1))
    in
    let memo = explore n initial in
    (* Bottom-up costing over the memo (groups keyed by subset; all
       proper subsets of a group are smaller integers). *)
    let card = Blitz_core.Card_table.compute catalog graph in
    let slots = 1 lsl n in
    let cost = Array.make slots Float.infinity in
    let best_lhs = Array.make slots 0 in
    for i = 0 to n - 1 do
      cost.(1 lsl i) <- 0.0
    done;
    for s = 3 to slots - 1 do
      if s land (s - 1) <> 0 then begin
        match Hashtbl.find_opt memo.exprs s with
        | None -> ()
        | Some tbl ->
          Hashtbl.iter
            (fun lhs () ->
              let rhs = s lxor lhs in
              if Float.is_finite cost.(lhs) && Float.is_finite cost.(rhs) then begin
                let c =
                  cost.(lhs) +. cost.(rhs)
                  +. Cost_model.kappa model ~out:card.(s) ~lcard:card.(lhs) ~rcard:card.(rhs)
                in
                if c < cost.(s) then begin
                  cost.(s) <- c;
                  best_lhs.(s) <- lhs
                end
              end)
            tbl
      end
    done;
    let rec extract s =
      if Relset.is_singleton s then Plan.Leaf (Relset.min_elt s)
      else begin
        let l = best_lhs.(s) in
        assert (l <> 0);
        Plan.Join (extract l, extract (s lxor l))
      end
    in
    let groups =
      n + Hashtbl.fold (fun _ tbl acc -> if Hashtbl.length tbl > 0 then acc + 1 else acc) memo.exprs 0
    in
    ( (extract full, cost.(full)),
      {
        groups;
        expressions = memo.expressions;
        rule_applications = memo.rule_applications;
        duplicates_suppressed = memo.duplicates;
      } )
  end
