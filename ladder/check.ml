(* Answer checking.  Every answer a run receives is recorded (deduplicated
   with its multiplicity, so a pool workload checks each distinct answer
   once however often it repeats) and checked after the timed window:

   - the plan parses, validates and covers all n relations;
   - the plan re-costs (Plan.cost, the reference implementation) to the
     reported cost;
   - the answering tier is "exact" (one request in flight never sheds);
   - for queries picked for reference, an exact-tier cost prints
     identically (%.12g, the wire's precision) to the optimum a fresh
     cache-less Engine session computes, and the returned cost over that
     optimum feeds the regret. *)

module Catalog = Blitz_catalog.Catalog
module Plan = Blitz_plan.Plan
module Engine = Blitz_engine.Engine
module Registry = Blitz_engine.Registry

type t = {
  answers : (int * string * int64 * string, Query.t * int ref) Hashtbl.t;
  picked : (int, Query.t) Hashtbl.t;  (* queries to check against the optimum *)
  mutable errors : int;  (* error replies, timeouts, unparseable lines *)
  mutable first_error : string option;
}

let create () =
  { answers = Hashtbl.create 1024; picked = Hashtbl.create 256; errors = 0; first_error = None }

let add t (q : Query.t) ~plan ~cost ~tier =
  let key = (q.Query.id, plan, Int64.bits_of_float cost, tier) in
  match Hashtbl.find_opt t.answers key with
  | Some (_, c) -> incr c
  | None -> Hashtbl.add t.answers key (q, ref 1)

let pick t (q : Query.t) = Hashtbl.replace t.picked q.Query.id q

let error t msg =
  t.errors <- t.errors + 1;
  if t.first_error = None then t.first_error <- Some msg

let answered t = Hashtbl.fold (fun _ (_, c) acc -> acc + !c) t.answers 0

(* Optima already computed in this process, by query id (equal ids are
   equal queries within a run), so a traced run's passes, which replay
   the same queries, compute each one once. *)
let optima : (int, float) Hashtbl.t = Hashtbl.create 256

(* Optimum of a query, from one fresh cache-less session per model. *)
let reference_costs t =
  let sessions = Hashtbl.create 3 in
  let session (m : Query.Cost_model.t) =
    match Hashtbl.find_opt sessions m.Query.Cost_model.name with
    | Some s -> s
    | None ->
      let s = Engine.create ~model:m () in
      Hashtbl.add sessions m.Query.Cost_model.name s;
      s
  in
  let costs = Hashtbl.create (Hashtbl.length t.picked) in
  Hashtbl.iter
    (fun id q ->
      let cost =
        match Hashtbl.find_opt optima id with
        | Some c -> c
        | None ->
          let catalog, graph = Query.problem q in
          let o = Engine.optimize (session q.Query.model) (Registry.problem ~graph catalog) in
          Hashtbl.add optima id o.Registry.cost;
          o.Registry.cost
      in
      Hashtbl.replace costs id cost)
    t.picked;
  Hashtbl.iter (fun _ s -> Engine.close s) sessions;
  costs

let g12 x = Printf.sprintf "%.12g" x

let defect (q : Query.t) ~plan ~cost ~tier ~optimum =
  let catalog, graph = Query.problem q in
  match Plan.of_compact_string ~names:(Catalog.names catalog) plan with
  | Error msg -> Some ("plan does not parse: " ^ msg)
  | Ok p -> (
    match Plan.validate ~n:q.Query.n p with
    | Error msg -> Some ("plan does not validate: " ^ msg)
    | Ok () when Plan.leaf_count p <> q.Query.n -> Some "plan does not cover every relation"
    | Ok () ->
      let recost = Plan.cost q.Query.model catalog graph p in
      if Float.abs (recost -. cost) > 1e-9 *. Float.abs recost then
        Some (Printf.sprintf "cost %s re-costs to %s" (g12 cost) (g12 recost))
      else if tier <> "exact" then Some ("answer from tier " ^ tier)
      else
        match optimum with
        | Some best when g12 cost <> g12 best ->
          Some (Printf.sprintf "exact-tier cost %s is not the optimum %s" (g12 cost) (g12 best))
        | _ -> None)

type verdict = {
  failed : int;  (* requests: error replies plus defective answers *)
  regret : float;  (* geometric mean of cost / optimum over picked queries *)
  checked : int;  (* requests compared against the optimum *)
  first_failure : string option;
}

let verify t =
  let optimum = reference_costs t in
  let failed = ref t.errors and first = ref t.first_error in
  let log_sum = ref 0. and checked = ref 0 in
  Hashtbl.iter
    (fun (id, plan, bits, tier) ((q : Query.t), count) ->
      let cost = Int64.float_of_bits bits in
      let best = Hashtbl.find_opt optimum id in
      (match defect q ~plan ~cost ~tier ~optimum:best with
      | Some msg ->
        failed := !failed + !count;
        if !first = None then
          first := Some (Printf.sprintf "%s: %s" (Query.Workload.describe (Query.spec q)) msg)
      | None -> ());
      match best with
      | Some b when b > 0. && cost > 0. ->
        (* Equal at wire precision is regret 1 exactly, not 1 + rounding. *)
        if g12 cost <> g12 b then log_sum := !log_sum +. (float_of_int !count *. log (cost /. b));
        checked := !checked + !count
      | _ -> ())
    t.answers;
  {
    failed = !failed;
    regret = (if !checked = 0 then 1. else exp (!log_sum /. float_of_int !checked));
    checked = !checked;
    first_failure = !first;
  }
