(* Second-layer unit tests: behaviours of each subsystem that the primary
   suites exercise only indirectly. *)

open Gf_query
module Graph = Gf_graph.Graph
module Generators = Gf_graph.Generators
module Stats = Gf_graph.Stats
module Catalog = Gf_catalog.Catalog
module Planner = Gf_opt.Planner
module Plan = Gf_plan.Plan
module Exec = Gf_exec.Exec
module Naive = Gf_exec.Naive
module Counters = Gf_exec.Counters
module Adaptive = Gf_adaptive.Adaptive
module Ghd = Gf_ghd.Ghd
module Bj = Gf_baseline.Bj
module Cfl = Gf_baseline.Cfl
module Rng = Gf_util.Rng
module Bitset = Gf_util.Bitset
module Sorted = Gf_util.Sorted
module Int_vec = Gf_util.Int_vec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let graph () = Generators.holme_kim (Rng.create 111) ~n:200 ~m_per:4 ~p_triad:0.5 ~recip:0.3

(* ---------- graph ---------- *)

let test_max_out_cap () =
  let g = Generators.holme_kim ~max_out:6 (Rng.create 112) ~n:1500 ~m_per:5 ~recip:0.5 ~p_triad:0.3 in
  for v = 0 to Graph.num_vertices g - 1 do
    if Graph.degree g Graph.Fwd v > 6 then
      Alcotest.failf "vertex %d out-degree %d exceeds cap" v (Graph.degree g Graph.Fwd v)
  done

let test_plant_cliques () =
  let base = Generators.erdos_renyi (Rng.create 113) ~n:300 ~m:600 in
  let g = Generators.plant_cliques (Rng.create 114) base ~count:3 ~size:7 in
  check_bool "edges added" true (Graph.num_edges g > Graph.num_edges base);
  let db = Graphflow.Db.create ~z:100 g in
  check_bool "7-cliques exist" true (Graphflow.Db.count db (Patterns.q 14) >= 3)

let test_degree_equals_partition_sums () =
  let g = Graph.relabel (graph ()) (Rng.create 115) ~num_vlabels:3 ~num_elabels:2 in
  for v = 0 to Graph.num_vertices g - 1 do
    List.iter
      (fun dir ->
        let total = ref 0 in
        for el = 0 to 1 do
          for nl = 0 to 2 do
            total := !total + Graph.partition_size g dir v ~elabel:el ~nlabel:nl
          done
        done;
        if !total <> Graph.degree g dir v then
          Alcotest.failf "degree mismatch at %d: %d vs %d" v !total (Graph.degree g dir v))
      [ Graph.Fwd; Graph.Bwd ]
  done

let test_neighbours_any_nlabel_spans_partitions () =
  let g = Graph.relabel (graph ()) (Rng.create 116) ~num_vlabels:3 ~num_elabels:1 in
  for v = 0 to 40 do
    let _, lo, hi = Graph.neighbours_any_nlabel g Graph.Fwd v ~elabel:0 in
    let parts = ref 0 in
    for nl = 0 to 2 do
      parts := !parts + Graph.partition_size g Graph.Fwd v ~elabel:0 ~nlabel:nl
    done;
    check_int "span covers all nlabel partitions" !parts (hi - lo)
  done

let test_stats_summary_fields () =
  let g = graph () in
  let s = Stats.summarize ~samples:100 g in
  check_int "n" (Graph.num_vertices g) s.Stats.num_vertices;
  check_int "m" (Graph.num_edges g) s.Stats.num_edges;
  check_bool "avg consistent" true
    (abs_float (s.Stats.avg_out_degree -. (float_of_int s.Stats.num_edges /. float_of_int s.Stats.num_vertices)) < 1e-6);
  check_bool "clustering in [0,1]" true (s.Stats.avg_clustering >= 0.0 && s.Stats.avg_clustering <= 1.0)

let test_triangle_sampling_estimate () =
  let g = graph () in
  let exact = float_of_int (Naive.count g Patterns.asymmetric_triangle) in
  let est = Stats.count_triangles_sampled g (Rng.create 117) ~samples:(Graph.num_edges g) in
  check_bool
    (Printf.sprintf "sampled %f vs exact %f" est exact)
    true
    (Catalog.q_error ~estimate:est ~truth:exact < 1.2)

(* ---------- sorted kernels ---------- *)

let test_gallop_via_skewed_cascade () =
  (* Heavily skewed 3-way with one singleton: the cascade starts from the
     singleton, gallops through the big lists and returns the correct
     element. *)
  let big = Sorted.of_array (Array.init 50_000 (fun i -> i * 2)) in
  let out = Int_vec.create () in
  Sorted.intersect out (Sorted.of_slices [| big; Sorted.of_array [| 77_776 |]; big |]);
  Alcotest.(check (array int)) "skewed" [| 77_776 |] (Int_vec.to_array out)

(* ---------- catalogue ---------- *)

let test_edge_count_memoized_consistent () =
  let g = Graph.relabel (graph ()) (Rng.create 118) ~num_vlabels:2 ~num_elabels:2 in
  let cat = Catalog.create g in
  let total = ref 0 in
  for el = 0 to 1 do
    for sl = 0 to 1 do
      for dl = 0 to 1 do
        total := !total + Catalog.edge_count cat ~elabel:el ~slabel:sl ~dlabel:dl
      done
    done
  done;
  check_int "partition counts sum to m" (Graph.num_edges g) !total

let test_mu_double_removal () =
  (* h=2 with a 5-vertex extension forces removing 2 vertices in the
     fallback (z-set size 2). *)
  let g = graph () in
  let cat = Catalog.create ~h:2 ~z:200 g in
  let q = Patterns.q 8 (* bowtie, 5 vertices *) in
  let mu =
    Gf_opt.Cost_model.mu (Gf_opt.Cost_model.create cat q) ~child:(Bitset.of_list [ 0; 1; 2; 3 ])
      ~v:4
  in
  check_bool "finite non-negative" true (Float.is_finite mu && mu >= 0.0)

let test_exhaustive_then_save_load () =
  let g = Generators.erdos_renyi (Rng.create 119) ~n:80 ~m:320 in
  let cat = Catalog.create ~h:2 ~z:100 g in
  let n = Catalog.build_exhaustive cat in
  let path = Filename.temp_file "gf_cat2" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Catalog.save cat path;
      let cat2 = Catalog.load g path in
      check_int "all entries persisted" n (Catalog.num_entries cat2))

(* ---------- planner ---------- *)

let test_beam_matches_full_on_medium_query () =
  (* For a 6-vertex query, beam mode (threshold 4) and full mode must both
     produce correct plans; costs may differ. *)
  let g = graph () in
  let cat = Catalog.create ~z:200 g in
  let q = Patterns.q 9 in
  let expected = Naive.count g q in
  let full, _ = Planner.plan cat q in
  let beam, _ =
    Planner.plan ~opts:{ Planner.default_opts with beam_threshold = 4; beam_width = 4 } cat q
  in
  check_int "full correct" expected (Exec.count g full);
  check_int "beam correct" expected (Exec.count g beam)

let test_planner_deterministic () =
  let g = graph () in
  let cat = Catalog.create ~z:200 g in
  let p1, c1 = Planner.plan cat (Patterns.q 8) in
  let p2, c2 = Planner.plan cat (Patterns.q 8) in
  Alcotest.(check string) "same plan" (Plan.signature p1) (Plan.signature p2);
  check_bool "same cost" true (c1 = c2)

let test_wco_only_all_queries () =
  let g = graph () in
  let cat = Catalog.create ~z:200 g in
  let opts = { Planner.default_opts with mode = Planner.Wco_only } in
  List.iter
    (fun i ->
      let q = Patterns.q i in
      let p, _ = Planner.plan ~opts cat q in
      check_int (Printf.sprintf "Q%d wco-only" i) (Query.num_vertices q - 2) (Plan.num_ei_operators p);
      check_int (Printf.sprintf "Q%d wco-only count" i) (Naive.count g q) (Exec.count g p))
    [ 2; 3; 4; 8; 11 ]

(* ---------- adaptive ---------- *)

let test_adaptive_stats_shape () =
  let g = graph () in
  let cat = Catalog.create ~z:200 g in
  let q = Patterns.diamond_x in
  let plan = Plan.wco q [| 1; 2; 0; 3 |] in
  let _, _, stats = Adaptive.run cat g q plan in
  check_int "one segment" 1 stats.Adaptive.segments;
  (* Extending {a2,a3} by {a1,a4}: both orders are connected -> 2 candidates. *)
  check_int "two candidate orderings" 2 stats.Adaptive.candidate_orderings;
  check_bool "used at least one" true (stats.Adaptive.orderings_used >= 1);
  check_bool "routed = scan tuples" true (stats.Adaptive.tuples_routed > 0)

let test_adaptive_sink_and_limit_together () =
  let g = graph () in
  let cat = Catalog.create ~z:200 g in
  let q = Patterns.diamond_x in
  let plan = Plan.wco q [| 0; 1; 2; 3 |] in
  let seen = ref 0 in
  let gov = Gf_exec.Governor.create (Gf_exec.Governor.budget ~max_output:9 ()) in
  let c, _, _ = Adaptive.run ~gov ~sink:(fun _ -> incr seen) cat g q plan in
  check_int "limited" 9 c.Counters.output;
  check_int "sink calls" 9 !seen

(* ---------- ghd ---------- *)

let test_ghd_decompositions_sorted_by_width () =
  List.iter
    (fun i ->
      let all = Ghd.decompositions (Patterns.q i) in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a.Ghd.width <= b.Ghd.width +. 1e-9 && nondecreasing rest
        | _ -> true
      in
      check_bool (Printf.sprintf "Q%d sorted" i) true (nondecreasing all))
    [ 2; 3; 8; 10 ]

let test_ghd_plan_with_orders_arity () =
  let q = Patterns.diamond_x in
  let d = Ghd.min_width_decomposition q in
  check_bool "arity mismatch rejected" true
    (try
       ignore (Ghd.plan_with_orders q d [| [| 0; 1; 2 |] |]);
       false
     with Invalid_argument _ -> true)

let test_ghd_labeled_queries () =
  let g = Graph.relabel (graph ()) (Rng.create 120) ~num_vlabels:1 ~num_elabels:2 in
  let cat = Catalog.create ~z:200 g in
  let rng = Rng.create 121 in
  List.iter
    (fun i ->
      let q = Patterns.randomize_edge_labels rng (Patterns.q i) ~num_elabels:2 in
      let d = Ghd.min_width_decomposition q in
      let p = Ghd.to_plan cat q d Ghd.Best_estimated in
      check_int (Printf.sprintf "Q%d_2 EH" i) (Naive.count g q) (Exec.count g p))
    [ 3; 8; 12 ]

(* ---------- baselines ---------- *)

let test_bj_default_order_covers_edges () =
  List.iter
    (fun i ->
      let q = Patterns.q i in
      (* run with the default order; stats must account for every edge
         (matches equals naive proves the order covered the query). *)
      let g = graph () in
      check_int (Printf.sprintf "Q%d bj" i) (Naive.count g q) (Bj.count g q))
    [ 6; 9; 10; 12 ]

let test_cfl_stats () =
  let g = Graph.relabel (graph ()) (Rng.create 122) ~num_vlabels:4 ~num_elabels:1 in
  let s = Cfl.run g Patterns.diamond_x in
  check_int "core of diamond-x" 4 s.Cfl.core_size;
  check_bool "candidates checked" true (s.Cfl.candidates_checked > 0);
  check_int "matches correct" (Naive.count ~distinct:true g Patterns.diamond_x) s.Cfl.matches

(* ---------- patterns / query ---------- *)

let test_clique_automorphism_trivial () =
  (* The acyclic orientation makes every vertex distinguishable. *)
  check_int "acyclic 4-clique rigid" 1 (List.length (Query.automorphisms (Patterns.clique 4 ~cyclic:false)));
  check_int "cyclic 4-clique" 1 (List.length (Query.automorphisms (Patterns.clique 4 ~cyclic:true)))

let test_cycle_automorphisms () =
  List.iter
    (fun k -> check_int (Printf.sprintf "%d-cycle rotations" k) k
        (List.length (Query.automorphisms (Patterns.cycle k))))
    [ 3; 4; 5; 6 ]

let test_q9_structure () =
  (* Q9 per DESIGN.md: two triangles sharing a3, closed through a6. *)
  let q = Patterns.q 9 in
  check_bool "a3 in both triangles" true (Bitset.cardinal (Query.neighbours q 2) = 4);
  check_bool "a6 closes" true (Query.has_edge q 0 5 && Query.has_edge q 4 5)

let suite =
  [
    ( "depth.graph",
      [
        Alcotest.test_case "max_out cap" `Quick test_max_out_cap;
        Alcotest.test_case "plant cliques" `Quick test_plant_cliques;
        Alcotest.test_case "degree = partition sums" `Quick test_degree_equals_partition_sums;
        Alcotest.test_case "any-nlabel span" `Quick test_neighbours_any_nlabel_spans_partitions;
        Alcotest.test_case "stats fields" `Quick test_stats_summary_fields;
        Alcotest.test_case "triangle sampling" `Quick test_triangle_sampling_estimate;
        Alcotest.test_case "skewed leapfrog" `Quick test_gallop_via_skewed_cascade;
      ] );
    ( "depth.catalog",
      [
        Alcotest.test_case "edge counts sum" `Quick test_edge_count_memoized_consistent;
        Alcotest.test_case "double removal" `Quick test_mu_double_removal;
        Alcotest.test_case "exhaustive save/load" `Quick test_exhaustive_then_save_load;
      ] );
    ( "depth.planner",
      [
        Alcotest.test_case "beam vs full" `Quick test_beam_matches_full_on_medium_query;
        Alcotest.test_case "deterministic" `Quick test_planner_deterministic;
        Alcotest.test_case "wco-only suite" `Slow test_wco_only_all_queries;
      ] );
    ( "depth.adaptive",
      [
        Alcotest.test_case "stats shape" `Quick test_adaptive_stats_shape;
        Alcotest.test_case "sink + limit" `Quick test_adaptive_sink_and_limit_together;
      ] );
    ( "depth.ghd",
      [
        Alcotest.test_case "sorted by width" `Quick test_ghd_decompositions_sorted_by_width;
        Alcotest.test_case "arity" `Quick test_ghd_plan_with_orders_arity;
        Alcotest.test_case "labeled" `Quick test_ghd_labeled_queries;
      ] );
    ( "depth.baselines",
      [
        Alcotest.test_case "bj default orders" `Slow test_bj_default_order_covers_edges;
        Alcotest.test_case "cfl stats" `Quick test_cfl_stats;
      ] );
    ( "depth.query",
      [
        Alcotest.test_case "clique rigidity" `Quick test_clique_automorphism_trivial;
        Alcotest.test_case "cycle automorphisms" `Quick test_cycle_automorphisms;
        Alcotest.test_case "q9 structure" `Quick test_q9_structure;
      ] );
  ]
