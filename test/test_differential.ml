(* Differential testing: every exhaustive strategy in the repository
   must find the same optimum on the same problem — a single property
   cross-checking five independently implemented searches (and, on their
   applicable subdomains, the restricted ones' containment ordering). *)

open Test_helpers
module Blitzsplit = Blitz_core.Blitzsplit
module Registry = Blitz_engine.Registry
module B = Blitz_baselines
module Dpccp = Blitz_dpccp.Dpccp

let agree a b = Blitz_util.Float_more.approx_equal ~rel:1e-6 a b

let prop_exhaustive_strategies_agree =
  QCheck2.Test.make ~count:80
    ~name:"blitzsplit = dpsize = volcano = threshold search = brute force" ~print:problem_print
    (problem_gen ~max_n:7)
    (fun p ->
      let reference = Blitzsplit.best_cost (Blitzsplit.optimize_join p.model p.catalog p.graph) in
      let checks =
        [
          ("dpsize", (B.Dpsize.optimize p.model p.catalog p.graph).B.Dpsize.cost);
          ("volcano", snd (fst (B.Volcano.optimize p.model p.catalog p.graph)));
          ( "threshold",
            (Registry.optimize
               (Registry.ctx ~threshold:1.0 ~growth:100.0 p.model)
               (Registry.problem ~graph:p.graph p.catalog))
              .Registry.cost );
          ("bruteforce", snd (B.Bruteforce.optimize p.model p.catalog p.graph));
        ]
      in
      List.iter
        (fun (name, cost) ->
          if not (agree reference cost) then
            QCheck2.Test.fail_reportf "%s: %.9g vs blitzsplit %.9g" name cost reference)
        checks;
      true)

let prop_restriction_ordering =
  (* Cost never improves as the search space shrinks:
     bushy+products <= bushy-no-products (dpsize = DPccp)
                    <= left-deep-no-products,
     and bushy+products <= left-deep+products <= left-deep-deferred. *)
  QCheck2.Test.make ~count:80 ~name:"search-space restrictions form a cost lattice"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let slack = 1.0 +. 1e-9 in
      let bushy = Blitzsplit.best_cost (Blitzsplit.optimize_join p.model p.catalog p.graph) in
      let np = (B.Dpsize.optimize ~cartesian:false p.model p.catalog p.graph).B.Dpsize.cost in
      let ccp = (Dpccp.optimize p.model p.catalog p.graph).Dpccp.cost in
      let ld = (B.Leftdeep.optimize ~policy:B.Leftdeep.Allowed p.model p.catalog p.graph).B.Leftdeep.cost in
      let ld_def =
        (B.Leftdeep.optimize ~policy:B.Leftdeep.Deferred p.model p.catalog p.graph).B.Leftdeep.cost
      in
      let ld_np =
        (B.Leftdeep.optimize ~policy:B.Leftdeep.Forbidden p.model p.catalog p.graph).B.Leftdeep.cost
      in
      agree np ccp
      && np >= bushy /. slack
      && ld >= bushy /. slack
      && ld_def >= ld /. slack
      && ld_np >= np /. slack
      && ld_np >= ld_def /. slack)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_exhaustive_strategies_agree;
    QCheck_alcotest.to_alcotest prop_restriction_ordering;
  ]
