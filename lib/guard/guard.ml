module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Engine = Blitz_engine.Engine

type outcome = {
  plan : Plan.t;
  cost : float;
  provenance : Degrade.provenance;
  repairs : Sanitize.issue list;
  catalog : Catalog.t;
  graph : Join_graph.t;
  from_cache : bool;
}

type error =
  | Invalid_input of Sanitize.issue list
  | No_tier_produced of Degrade.attempt list
  | Multiway_retired
  | Internal of string

let error_message = function
  | Invalid_input issues ->
    (* The issues carry their own "input:" scope. *)
    Blitz_util.Err.format ~scope:"Guard.optimize" "%s"
      (String.concat "; " (List.map Sanitize.issue_message issues))
  | No_tier_produced attempts ->
    Blitz_util.Err.format ~scope:"Guard.optimize" "no tier produced a plan (%s)"
      (String.concat "; "
         (List.map
            (fun (a : Degrade.attempt) -> Format.asprintf "%a" Degrade.pp_attempt a)
            attempts))
  | Multiway_retired ->
    Blitz_util.Err.format ~scope:"Guard.optimize"
      "multiway planning was retired; every plan is binary"
  | Internal msg -> Blitz_util.Err.format ~scope:"Guard.optimize" "internal failure: %s" msg

(* The guard participates in a session's plan cache only on the clean
   path: sanitize-repaired statistics (the chaos suite's territory) are
   a different query than the caller submitted, and a resilient driver
   does not let a corrupted input stream populate — or be answered from
   — the cache.  Only the exact tier's answer is cached, under the
   "exact" key it shares bit for bit with [Engine.optimize]; the tiers
   below it answer with whatever the budget allowed, which is no
   optimum to replay. *)
let cached_tier = Degrade.Exact

(* The cache round around the cascade: [Engine.cache_around]
   fingerprints the problem once, looks it up under the exact key, and
   on a miss stores the exact tier's plan and cost from that same
   fingerprint.  The cascade uses the session's arena and pool, never
   its cache, so the fingerprint is still in the scratch when the store
   comes. *)
let with_cache ~session ~repairs ?cache_tag model catalog graph ~hit run =
  match session with
  | Some s when repairs = [] ->
    Engine.cache_around ~model ?cache_tag s
      ~optimizer:(Degrade.tier_name cached_tier)
      (Blitz_engine.Registry.problem ~graph catalog)
      ~hit:(hit cached_tier)
      ~miss:(fun () ->
        let result = run () in
        ( result,
          match result with
          | Ok o when o.provenance.Degrade.winner = cached_tier -> Some (o.plan, o.cost)
          | Ok _ | Error _ -> None ))
  | _ -> run ()

(* All entry points funnel here.  The budget is (re-)armed exactly once,
   so every tier of the cascade draws down the same allowance; the
   catch-all converts any escaped exception — there should be none, but
   a resilient driver does not get to assume that — into a typed error
   rather than unwinding through the caller. *)
let drive ~budget ?seed ?session ?cache_tag model catalog graph repairs =
  Budget.start budget;
  (* Fabricated cardinalities (Sanitize defaulted them) mean every
     cost-based tier would optimize placeholder numbers; the cascade
     goes straight to the estimate-free plan. *)
  let fabricated = Sanitize.fabricated_stats repairs in
  let served tier (hit : Engine.Plan_cache.hit) =
    let cost = hit.Engine.Plan_cache.cost in
    let provenance =
      {
        Degrade.winner = tier;
        winner_cost = cost;
        attempts =
          [
            {
              Degrade.tier;
              status = Degrade.Produced cost;
              elapsed_ms = Budget.elapsed_ms budget;
              bound = None;
            };
          ];
        total_ms = Budget.elapsed_ms budget;
      }
    in
    Ok
      {
        plan = hit.Engine.Plan_cache.plan;
        cost;
        provenance;
        repairs;
        catalog;
        graph;
        from_cache = true;
      }
  in
  let run () =
    (* A session plugs its pooled DP table into the cascade and, for a
       query large enough to run rank-parallel, its domain pool.  Plans
       and costs are bit-identical with or without it. *)
    match Degrade.optimize ?seed ?session ~budget ~fabricated model catalog graph with
    | Ok (plan, provenance) ->
      Ok
        {
          plan;
          cost = provenance.Degrade.winner_cost;
          provenance;
          repairs;
          catalog;
          graph;
          from_cache = false;
        }
    | Error attempts -> Error (No_tier_produced attempts)
  in
  try with_cache ~session ~repairs ?cache_tag model catalog graph ~hit:served run
  with exn -> Error (Internal (Printexc.to_string exn))

(* [multiway] stays only because the benchmark ladder still forwards the
   wire's flag, which the decoder pins to [false]; [true] is refused
   before any tier runs. *)
let optimize ?budget ?session ?seed ?(multiway = false) ?cache_tag model catalog graph =
  if multiway then Error Multiway_retired
  else
    let budget = match budget with Some b -> b | None -> Budget.unlimited () in
    match Sanitize.check_pair catalog graph with
    | Error issues -> Error (Invalid_input issues)
    | Ok clean ->
      drive ~budget ?seed ?session ?cache_tag model clean.Sanitize.catalog
        clean.Sanitize.graph clean.Sanitize.repairs

let optimize_input ?budget ?session ?seed ?cache_tag model ~relations ~edges () =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  match Sanitize.check ~relations ~edges () with
  | Error issues -> Error (Invalid_input issues)
  | exception exn -> Error (Internal (Printexc.to_string exn))
  | Ok clean ->
    drive ~budget ?seed ?session ?cache_tag model clean.Sanitize.catalog
      clean.Sanitize.graph clean.Sanitize.repairs
