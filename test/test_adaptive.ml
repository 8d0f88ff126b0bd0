open Gf_query
module Adaptive = Gf_adaptive.Adaptive
module Catalog = Gf_catalog.Catalog
module Planner = Gf_opt.Planner
module Plan = Gf_plan.Plan
module Exec = Gf_exec.Exec
module Naive = Gf_exec.Naive
module Counters = Gf_exec.Counters
module Governor = Gf_exec.Governor
module Graph = Gf_graph.Graph
module Generators = Gf_graph.Generators
module Rng = Gf_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let graph () = Generators.holme_kim (Rng.create 31) ~n:250 ~m_per:4 ~p_triad:0.5 ~recip:0.35

let test_adaptable () =
  let q = Patterns.diamond_x in
  check_bool "wco chain adaptable" true (Adaptive.adaptable (Plan.wco q [| 0; 1; 2; 3 |]));
  let hybrid = Plan.hash_join q (Plan.wco q [| 1; 2; 0 |]) (Plan.wco q [| 1; 2; 3 |]) in
  check_bool "single E/I chains not adaptable" false (Adaptive.adaptable hybrid)

let test_same_results_wco () =
  let g = graph () in
  let cat = Catalog.create ~z:300 g in
  List.iter
    (fun i ->
      let q = Patterns.q i in
      List.iter
        (fun order ->
          let plan = Plan.wco q order in
          let fixed = Exec.count g plan in
          let c, _, stats = Adaptive.run cat g q plan in
          check_int (Printf.sprintf "Q%d adaptive output" i) fixed c.Counters.output;
          check_int (Printf.sprintf "Q%d one segment" i) 1 stats.Adaptive.segments;
          check_bool "routed tuples" true (stats.Adaptive.tuples_routed > 0))
        (List.filteri (fun idx _ -> idx < 3) (Query.connected_orders q)))
    [ 2; 3; 4; 5 ]

let test_same_tuples () =
  let g = graph () in
  let cat = Catalog.create ~z:300 g in
  let q = Patterns.diamond_x in
  let plan = Plan.wco q [| 0; 1; 2; 3 |] in
  let fixed = ref [] in
  let _ = Exec.run_gov ~sink:(fun t -> fixed := Array.copy t :: !fixed) g plan in
  let fixed = List.sort compare !fixed in
  let adaptive = ref [] in
  let _ = Adaptive.run ~sink:(fun t -> adaptive := Array.copy t :: !adaptive) cat g q plan in
  Alcotest.(check (list (array int))) "same tuple set" fixed (List.sort compare !adaptive)

let test_same_results_hybrid () =
  (* Q10's optimizer plan contains an E/I chain inside a hybrid tree. *)
  let g = graph () in
  let cat = Catalog.create ~z:300 g in
  let q = Patterns.q 10 in
  let plan, _ = Planner.plan cat q in
  let fixed = Exec.count g plan in
  let c, _, _stats = Adaptive.run cat g q plan in
  check_int "hybrid adaptive output" fixed c.Counters.output

let test_adaptivity_actually_routes () =
  (* Construct the Figure 4-style situation: a graph where different scan
     edges have wildly different degrees at their endpoints, so different
     orderings win for different tuples. *)
  let g = Generators.barabasi_albert (Rng.create 37) ~n:2000 ~m_per:5 ~recip:0.4 in
  let cat = Catalog.create ~z:500 g in
  let q = Patterns.diamond_x in
  let plan = Plan.wco q [| 1; 2; 0; 3 |] in
  let _, _, stats = Adaptive.run cat g q plan in
  check_bool
    (Printf.sprintf "multiple orderings used (%d of %d)" stats.Adaptive.orderings_used
       stats.Adaptive.candidate_orderings)
    true
    (stats.Adaptive.orderings_used >= 2);
  check_bool "candidates = connected extensions" true (stats.Adaptive.candidate_orderings >= 2)

let test_limit_respected () =
  let g = graph () in
  let cat = Catalog.create ~z:300 g in
  let q = Patterns.diamond_x in
  let plan = Plan.wco q [| 0; 1; 2; 3 |] in
  let gov = Governor.create (Governor.budget ~max_output:7 ()) in
  let c, _, _ = Adaptive.run ~gov cat g q plan in
  check_int "limit" 7 c.Counters.output

let test_adaptive_can_reduce_icost () =
  (* On the skewed graph, adaptive should not do dramatically more
     intersection work than the best fixed plan, and should beat the worst
     fixed plan. *)
  let g = Generators.barabasi_albert (Rng.create 41) ~n:3000 ~m_per:5 ~recip:0.3 in
  let cat = Catalog.create ~z:500 g in
  let q = Patterns.diamond_x in
  let orders = Query.connected_orders q in
  let fixed_costs =
    List.map (fun o -> (fst (Exec.run_gov g (Plan.wco q o))).Counters.icost) orders
  in
  let worst = List.fold_left max 0 fixed_costs in
  let plan = Plan.wco q [| 1; 2; 0; 3 |] in
  let c, _, _ = Adaptive.run cat g q plan in
  check_bool
    (Printf.sprintf "adaptive icost %d < worst fixed %d" c.Counters.icost worst)
    true
    (c.Counters.icost < worst)

let suite =
  [
    ( "adaptive",
      [
        Alcotest.test_case "adaptable predicate" `Quick test_adaptable;
        Alcotest.test_case "same results (wco)" `Slow test_same_results_wco;
        Alcotest.test_case "same tuples" `Quick test_same_tuples;
        Alcotest.test_case "same results (hybrid)" `Quick test_same_results_hybrid;
        Alcotest.test_case "routes adaptively" `Slow test_adaptivity_actually_routes;
        Alcotest.test_case "limit" `Quick test_limit_respected;
        Alcotest.test_case "icost sane" `Slow test_adaptive_can_reduce_icost;
      ] );
  ]
