(* Registry dispatch for the bench experiments.

   Every optimizer invocation in bench/ goes through
   [Blitz_engine.Registry] so the harness measures exactly the code
   path the engine serves (and so adding an optimizer to the registry
   is enough for the comparison sweeps to pick it up). *)

module Registry = Blitz_engine.Registry

let run ?(optimizer = "exact") ?arena ?pool ?counters ?threshold ?seed model catalog graph =
  Registry.optimize ~optimizer
    (Registry.ctx ?arena ?pool ?counters ?threshold ?seed model)
    { Registry.catalog; graph }

let cost ?optimizer ?arena ?pool ?counters ?threshold ?seed model catalog graph =
  (run ?optimizer ?arena ?pool ?counters ?threshold ?seed model catalog graph).Registry.cost

let plan_exn ?optimizer ?seed model catalog graph =
  Option.get (run ?optimizer ?seed model catalog graph).Registry.plan
