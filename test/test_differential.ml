(* Differential testing: every exhaustive strategy in the repository
   must find the same optimum on the same problem — a single property
   cross-checking five independently implemented searches (and, on their
   applicable subdomains, the restricted ones' containment ordering). *)

open Test_helpers
module Blitzsplit = Blitz_core.Blitzsplit
module Blitzsplit_eq = Blitz_core.Blitzsplit_eq
module Blitzsplit_hyper = Blitz_core.Blitzsplit_hyper
module Threshold = Blitz_core.Threshold
module Equivalence = Blitz_graph.Equivalence
module Hypergraph = Blitz_graph.Hypergraph
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
            Blitzsplit.best_cost
              (Threshold.optimize_join ~threshold:1.0 ~growth:100.0 p.model p.catalog p.graph)
                .Threshold.result );
          ("bruteforce", snd (B.Bruteforce.optimize p.model p.catalog p.graph));
          ( "hyper embedding",
            Blitzsplit_hyper.best_cost
              (Blitzsplit_hyper.optimize p.model p.catalog (Hypergraph.of_join_graph p.graph)) );
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

let prop_eq_and_plain_consistency =
  (* Feeding the eq optimizer the exact pairwise classes of a graph whose
     edges all touch two relations must agree with the plain optimizer
     (already tested); additionally, the hypergraph embedding of the
     pairwise projection of ANY class structure agrees with the class
     optimizer whenever no class spans 3+ relations. *)
  QCheck2.Test.make ~count:60 ~name:"eq/hyper/plain consistency on binary structures"
    ~print:problem_print (problem_gen ~max_n:7)
    (fun p ->
      let n = Catalog.n p.catalog in
      let clamped =
        List.map (fun (i, j, s) -> (i, j, Float.min 1.0 s)) (Join_graph.edges p.graph)
      in
      let graph = Join_graph.of_edges ~n clamped in
      let preds =
        List.map
          (fun (i, j, s) -> ((i, Printf.sprintf "c%d_%d" i j), (j, Printf.sprintf "c%d_%d" i j), s))
          clamped
      in
      let eq = Equivalence.of_predicates ~n preds in
      let a = Blitzsplit.best_cost (Blitzsplit.optimize_join p.model p.catalog graph) in
      let b = Blitzsplit_eq.best_cost (Blitzsplit_eq.optimize p.model p.catalog eq) in
      let c =
        Blitzsplit_hyper.best_cost
          (Blitzsplit_hyper.optimize p.model p.catalog (Hypergraph.of_join_graph graph))
      in
      agree a b && agree a c)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_exhaustive_strategies_agree;
    QCheck_alcotest.to_alcotest prop_restriction_ordering;
    QCheck_alcotest.to_alcotest prop_eq_and_plain_consistency;
  ]
