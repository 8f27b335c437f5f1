module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Blitzsplit = Blitz_core.Blitzsplit
module Arena = Blitz_core.Arena
module Counters = Blitz_core.Counters
module Registry = Blitz_engine.Registry
module Engine = Blitz_engine.Engine
module Obs = Blitz_obs.Obs

type tier = Exact | Dpccp | Hybrid_windows | Greedy | Estimate_free

(* Tier names double as registry keys: the cascade no longer owns any
   algorithm invocation code, it sequences registry entries. *)
let tier_name = function
  | Exact -> "exact"
  | Dpccp -> "dpccp"
  | Hybrid_windows -> "hybrid"
  | Greedy -> "greedy"
  | Estimate_free -> "simpli-squared"

let tier_entry tier = Registry.find_exn (tier_name tier)

(* Dpccp slots between the exact DP and the hybrid: when the 2^n table
   (or the deadline) rules the full-space DP out, the
   connectivity-pruned search still finds the product-free optimum at
   polynomial cost on sparse graphs — strictly stronger than dropping
   straight to randomized search.  Its eligibility check refuses
   disconnected graphs, where its plan space is empty.

   No Section 6.4 thresholded tier sits behind [Exact]: it has exact's
   caps, so size and memory ceilings skip both, a deadline that aborts
   exact has latched and skips it too, and when exact finds no finite
   plan its last pass was the plain DP, whose plan space every
   thresholded pass searches a subset of.

   No IKKBZ tier sits behind the hybrid either: the hybrid has no size,
   memory or shape cap, so it answers whenever the deadline leaves it
   room (unless its cost is NaN), and once the deadline has latched it
   would skip IKKBZ for the same reason. *)
let default_cascade = [ Exact; Dpccp; Hybrid_windows; Greedy; Estimate_free ]

(* When Sanitize had to fabricate cardinalities the cost-based tiers
   would optimize placeholder numbers — garbage in, garbage out, at
   full exponential price.  Structure is all that genuinely survived
   the corruption, so the estimate-free tier leads; greedy remains as
   the (deadline-exempt) second opinion should the registry entry ever
   be displaced. *)
let fabricated_cascade = [ Estimate_free; Greedy ]

type skip_reason =
  | Too_large of { n : int; limit : int }
  | Memory of { needed_bytes : int; limit_bytes : int }
  | Deadline_expired
  | Not_applicable of string

let skip_message = function
  | Too_large { n; limit } -> Printf.sprintf "%d relations exceed the %d-relation DP table" n limit
  | Memory { needed_bytes; limit_bytes } ->
    Printf.sprintf "DP table needs %d B, ceiling is %d B" needed_bytes limit_bytes
  | Deadline_expired -> "deadline expired"
  | Not_applicable why -> Printf.sprintf "not applicable: %s" why

type failure = Deadline | No_finite_plan

let failure_message = function
  | Deadline -> "deadline"
  | No_finite_plan -> "no finite-cost plan"

type status = Produced of float | Aborted of failure | Skipped of skip_reason

type bound = { upper : Registry.bound; threshold_skips : int }

type attempt = { tier : tier; status : status; elapsed_ms : float; bound : bound option }

type provenance = {
  winner : tier;
  winner_cost : float;
  attempts : attempt list;  (** In cascade order, up to and including the winner. *)
  total_ms : float;
}

let pp_status ppf = function
  | Produced cost -> Format.fprintf ppf "produced plan (cost %g)" cost
  | Aborted f -> Format.fprintf ppf "aborted (%s)" (failure_message f)
  | Skipped r -> Format.fprintf ppf "skipped (%s)" (skip_message r)

let pp_attempt ppf a =
  match a.status with
  | Skipped _ -> Format.fprintf ppf "%s: %a" (tier_name a.tier) pp_status a.status
  | Produced _ -> Format.fprintf ppf "%s: %a in %.1fms" (tier_name a.tier) pp_status a.status a.elapsed_ms
  | Aborted _ -> Format.fprintf ppf "%s: %a after %.1fms" (tier_name a.tier) pp_status a.status a.elapsed_ms

let pp_bound ppf { upper; threshold_skips } =
  Format.fprintf ppf "bound: %g from %s, %d subset(s) skipped" upper.Registry.value
    upper.Registry.source threshold_skips

let pp_provenance ppf p =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i a ->
      if i > 0 then Format.fprintf ppf "@,";
      pp_attempt ppf a;
      Option.iter (Format.fprintf ppf "@,  %a" pp_bound) a.bound)
    p.attempts;
  Format.fprintf ppf "@]"

(* A tier is skipped — never attempted — when its registry metadata
   already rules it out: the [2^n] table cannot exist (size cap or
   memory ceiling), the algorithm does not apply (dpccp needs a
   connected graph), or the deadline is already gone.  [Greedy] is the
   terminal guarantee: its entry is deadline-exempt — [O(n^3)], no
   table — so the cascade always ends with a plan.  With a [session]
   the memory check charges its arena's would-be resident high-water
   mark ([Arena.bytes_after]) for the tiers that draw their table from
   it, and the entry's own estimate for the rest. *)
let eligibility ?session ~budget tier catalog graph =
  let n = Catalog.n catalog in
  let caps = (tier_entry tier).Registry.caps in
  if caps.Registry.deadline_exempt then None
  else if Budget.expired budget then Some Deadline_expired
  else
    match caps.Registry.max_n with
    | Some limit when n > limit -> Some (Too_large { n; limit })
    | Some _ | None -> (
      let memory_ok =
        match caps.Registry.table_bytes with
        | None -> None
        | Some bytes ->
          (* A resident plan cache shares the memory ceiling with the
             DP table: what the cache holds, the table cannot claim. *)
          let cache_bytes =
            match Option.bind session Engine.cache with
            | Some c -> Engine.Plan_cache.resident_bytes c
            | None -> 0
          in
          let needed_bytes =
            cache_bytes
            + (match (session, tier) with
              (* The exact tier's pass takes a table and the per-rank
                 subset lists from the arena; dpccp's dense backend a
                 table and no lists; its sparse backend,
                 past [Dpccp.dense_limit], nothing, so it is charged
                 its entry's own estimate, as without a session. *)
              | Some s, Exact -> Arena.bytes_after (Engine.arena s) ~n ()
              | Some s, Dpccp when n <= Registry.Dpccp.dense_limit ->
                Arena.bytes_after (Engine.arena s) ~with_index:false ~n ()
              | _ -> bytes ~n)
          in
          if Budget.admits_bytes budget needed_bytes then None
          else
            Some
              (Memory
                 {
                   needed_bytes;
                   limit_bytes = Option.value ~default:max_int (Budget.max_table_bytes budget);
                 })
      in
      match memory_ok with
      | Some _ as skip -> skip
      | None ->
        if caps.Registry.connected_only && not (Join_graph.is_connected graph) then
          Some (Not_applicable "join graph is disconnected")
        else None)

let run_tier ?session ~budget ~seed tier model catalog graph =
  let interrupt = Budget.interrupt budget in
  (* A plan with an overflowed (infinite) cost estimate is still a valid
     join order and better than nothing; only NaN — or no plan at all —
     counts as failure. *)
  let finish = function
    | Some plan, cost when not (Float.is_nan cost) -> Ok (plan, cost)
    | _ -> Error No_finite_plan
  in
  (* A session lends its arena and, for a query large enough to run
     rank-parallel, its pool.  On a pool the exact tier runs
     rank-parallel; the result — cost and plan — is bit-identical to the
     sequential search, so the tier keeps its meaning (Budget.interrupt
     is domain-safe).
     The exact tier prunes at the upper bound (Section 6.4): one pass
     with the optimum's cost and plan bits (see [Registry.run_exact]),
     or one plain pass when there is no finite bound.  Its counters are
     this call's own, so the skip count is read even when the deadline
     interrupts the pass. *)
  let problem = Registry.problem ~graph catalog in
  let upper = match tier with Exact -> Registry.upper_bound model problem | _ -> None in
  let counters = Counters.create () in
  let arena = Option.map Engine.arena session in
  let pool = Option.bind session (fun s -> Engine.pool s ~n:(Catalog.n catalog)) in
  let ctx =
    Registry.ctx ?arena ?pool ~interrupt
      ?threshold:(Option.map (fun (b : Registry.bound) -> b.Registry.value) upper)
      ~counters ~seed model
  in
  let result =
    match (tier_entry tier).Registry.optimize ctx problem with
    | o -> finish (o.Registry.plan, o.Registry.cost)
    | exception Blitzsplit.Interrupted -> Error Deadline
  in
  (result, Option.map (fun upper -> { upper; threshold_skips = counters.threshold_skips }) upper)

(* Cascade decisions, labelled by tier and what happened — the
   provenance trail as time series.  Counter lookup per attempt (a
   registry mutex) is noise next to the optimization the attempt ran. *)
let attempt_counter tier status =
  Obs.Metrics.counter ~help:"Degradation-cascade steps by tier and outcome"
    ~labels:[ ("tier", tier_name tier); ("status", status) ]
    "blitz_degrade_attempts_total"

let record_attempt tier status detail =
  if Obs.enabled () then begin
    Obs.Metrics.incr (attempt_counter tier status);
    Obs.instant "degrade.attempt"
      ~attrs:[ ("tier", tier_name tier); ("status", status); ("detail", detail) ]
  end

(* The bound beside its [degrade.exact] span: known only once the pass
   has run, so an instant rather than a span attribute. *)
let record_bound tier { upper; threshold_skips } =
  if Obs.enabled () then
    Obs.instant
      ("degrade." ^ tier_name tier ^ ".bound")
      ~attrs:
        [
          ("bound", Printf.sprintf "%g" upper.Registry.value);
          ("source", upper.Registry.source);
          ("threshold_skips", string_of_int threshold_skips);
        ]

let record_win tier =
  if Obs.enabled () then
    Obs.Metrics.incr
      (Obs.Metrics.counter ~help:"Queries whose winning plan came from this tier"
         ~labels:[ ("tier", tier_name tier) ]
         "blitz_degrade_wins_total")

let optimize ?(cascade = default_cascade) ?(seed = 1) ?session ~budget model catalog graph =
  let t_start = Budget.elapsed_ms budget in
  let rec go attempts = function
    | [] -> Error (List.rev attempts)
    | tier :: rest -> (
      match eligibility ?session ~budget tier catalog graph with
      | Some reason ->
        record_attempt tier "skipped" (skip_message reason);
        go ({ tier; status = Skipped reason; elapsed_ms = 0.0; bound = None } :: attempts) rest
      | None -> (
        let t0 = Budget.elapsed_ms budget in
        let result, bound =
          Obs.span ("degrade." ^ tier_name tier) (fun () ->
              run_tier ?session ~budget ~seed tier model catalog graph)
        in
        Option.iter (record_bound tier) bound;
        match result with
        | Ok (plan, cost) ->
          record_attempt tier "produced" (Printf.sprintf "cost %g" cost);
          record_win tier;
          let elapsed_ms = Budget.elapsed_ms budget -. t0 in
          let attempts =
            List.rev ({ tier; status = Produced cost; elapsed_ms; bound } :: attempts)
          in
          Ok
            ( plan,
              {
                winner = tier;
                winner_cost = cost;
                attempts;
                total_ms = Budget.elapsed_ms budget -. t_start;
              } )
        | Error failure ->
          record_attempt tier "aborted" (failure_message failure);
          let elapsed_ms = Budget.elapsed_ms budget -. t0 in
          go ({ tier; status = Aborted failure; elapsed_ms; bound } :: attempts) rest))
  in
  go [] cascade
