open Gf_query
module Spectrum = Gf_spectrum.Spectrum
module Parallel = Gf_exec.Parallel
module Exec = Gf_exec.Exec
module Naive = Gf_exec.Naive
module Counters = Gf_exec.Counters
module Plan = Gf_plan.Plan
module Planner = Gf_opt.Planner
module Catalog = Gf_catalog.Catalog
module Generators = Gf_graph.Generators
module Rng = Gf_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let graph () = Generators.holme_kim (Rng.create 71) ~n:120 ~m_per:3 ~p_triad:0.5 ~recip:0.3

let test_spectrum_families () =
  let q = Patterns.cycle 4 in
  let all, _capped = Spectrum.plans q in
  let count f = List.length (List.filter (fun (fam, _) -> fam = f) all) in
  check_bool "has WCO plans" true (count Spectrum.Wco > 0);
  check_bool "has BJ plans" true (count Spectrum.Bj > 0);
  (* Triangle: WCO only. *)
  let tri, _ = Spectrum.plans Patterns.asymmetric_triangle in
  check_int "triangle W" 3
    (List.length (List.filter (fun (f, _) -> f = Spectrum.Wco) tri));
  check_int "triangle B" 0
    (List.length (List.filter (fun (f, _) -> f = Spectrum.Bj) tri))

let test_spectrum_all_plans_correct () =
  let g = graph () in
  List.iter
    (fun i ->
      let q = Patterns.q i in
      let expected = Naive.count g q in
      let all, _ = Spectrum.plans ~per_subset_cap:4 ~family_cap:16 q in
      check_bool (Printf.sprintf "Q%d spectrum nonempty" i) true (all <> []);
      List.iter
        (fun (fam, p) ->
          check_int
            (Printf.sprintf "Q%d %s plan" i (Spectrum.family_to_string fam))
            expected (Exec.count g p))
        all)
    [ 2; 3; 4; 8; 12 ]

let test_spectrum_hybrid_exists_for_bowtie () =
  let all, _ = Spectrum.plans (Patterns.q 8) in
  check_bool "bowtie has hybrid plans" true
    (List.exists (fun (f, _) -> f = Spectrum.Hybrid) all)

let test_spectrum_run_and_summary () =
  let g = graph () in
  let q = Patterns.diamond_x in
  let s = Spectrum.run ~per_subset_cap:4 ~family_cap:8 g q in
  check_bool "entries" true (s.Spectrum.entries <> []);
  List.iter
    (fun e -> check_bool "positive time" true (e.Spectrum.seconds >= 0.0))
    s.Spectrum.entries;
  let cat = Catalog.create ~z:200 g in
  let picked, _ = Planner.plan cat q in
  let text = Spectrum.summary s ~picked_signature:(Plan.signature picked) in
  check_bool "summary mentions W" true
    (String.length text > 0 && String.contains text 'W')

let test_optimizer_pick_competitive () =
  (* The central claim of Figure 7: the optimizer's plan sits near the
     spectrum's fastest plan. We check by the planner's own cost at the
     true cardinalities (stable, unlike wall-clock on tiny graphs, and the
     work the kernel does, unlike Eq. 1 i-cost): pick <= 2x the spectrum
     minimum. *)
  let g = Generators.holme_kim (Rng.create 72) ~n:400 ~m_per:4 ~p_triad:0.4 ~recip:0.3 in
  let cat = Catalog.create ~z:500 g in
  List.iter
    (fun i ->
      let q = Patterns.q i in
      let picked, _ = Planner.plan cat q in
      let raw = Gf_opt.Cost_model.create cat q in
      let truth s =
        let sub, _ = Query.induced q s in
        float_of_int (Exec.count g (Plan.wco sub (Query.first_connected_order sub)))
      in
      let exact =
        Gf_opt.Cost_model.create
          ~corrections:(fun s ->
            let r = Gf_opt.Cost_model.card raw s in
            if r > 0.0 then truth s /. r else 1.0)
          cat q
      in
      let all, _ = Spectrum.plans ~per_subset_cap:4 ~family_cap:16 q in
      let best =
        List.fold_left (fun acc (_, p) -> Float.min acc (Planner.plan_cost exact p)) infinity all
      in
      let cost = Planner.plan_cost exact picked in
      check_bool
        (Printf.sprintf "Q%d pick cost %.0f <= 2x spectrum min %.0f" i cost best)
        true
        (cost <= (2.0 *. best) +. 1000.0))
    [ 1; 3; 4 ]

(* ---------- parallel ---------- *)

let test_parallel_same_counts () =
  let g = graph () in
  List.iter
    (fun i ->
      let q = Patterns.q i in
      let plan = Plan.wco q (List.hd (Query.connected_orders q)) in
      let seq = Exec.count g plan in
      List.iter
        (fun d ->
          let r = Parallel.run ~domains:d g plan in
          check_int
            (Printf.sprintf "Q%d with %d domains" i d)
            seq r.counters.Counters.output)
        [ 1; 2; 4 ])
    [ 1; 3; 5 ]

let test_parallel_hybrid_plan () =
  let g = graph () in
  let q = Patterns.diamond_x in
  let plan = Plan.hash_join q (Plan.wco q [| 1; 2; 0 |]) (Plan.wco q [| 1; 2; 3 |]) in
  let seq = Exec.count g plan in
  let r = Parallel.run ~domains:3 g plan in
  check_int "hybrid parallel count" seq r.counters.Counters.output

let test_parallel_work_division () =
  let g = Generators.holme_kim (Rng.create 73) ~n:2000 ~m_per:5 ~p_triad:0.4 ~recip:0.3 in
  let q = Patterns.asymmetric_triangle in
  let plan = Plan.wco q [| 0; 1; 2 |] in
  let r = Parallel.run ~domains:4 ~chunk:16 g plan in
  check_int "4 domains" 4 (Array.length r.Parallel.per_domain_output);
  (* On a single-core machine a domain can drain the shared queue before its
     siblings get scheduled, so per-domain shares are not guaranteed; the
     shares must simply account for the whole output. *)
  let total = Array.fold_left ( + ) 0 r.Parallel.per_domain_output in
  check_int "shares account for output" (Exec.count g plan) total;
  check_bool "some domain worked" true (Array.exists (fun o -> o > 0) r.Parallel.per_domain_output)

let suite =
  [
    ( "spectrum",
      [
        Alcotest.test_case "families" `Quick test_spectrum_families;
        Alcotest.test_case "all plans correct" `Slow test_spectrum_all_plans_correct;
        Alcotest.test_case "bowtie hybrids" `Quick test_spectrum_hybrid_exists_for_bowtie;
        Alcotest.test_case "run + summary" `Quick test_spectrum_run_and_summary;
        Alcotest.test_case "pick competitive" `Slow test_optimizer_pick_competitive;
      ] );
    ( "parallel",
      [
        Alcotest.test_case "same counts" `Quick test_parallel_same_counts;
        Alcotest.test_case "hybrid plan" `Quick test_parallel_hybrid_plan;
        Alcotest.test_case "work division" `Quick test_parallel_work_division;
      ] );
  ]
