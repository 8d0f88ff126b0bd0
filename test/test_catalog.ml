open Gf_query
module Catalog = Gf_catalog.Catalog
module Cost_model = Gf_opt.Cost_model
module Bitset = Gf_util.Bitset
module Independence = Gf_catalog.Independence
module Graph = Gf_graph.Graph
module Generators = Gf_graph.Generators
module Naive = Gf_exec.Naive
module Rng = Gf_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let graph () = Generators.holme_kim (Rng.create 99) ~n:500 ~m_per:4 ~p_triad:0.5 ~recip:0.3

let labeled () = Graph.relabel (graph ()) (Rng.create 100) ~num_vlabels:2 ~num_elabels:2

let near msg ~tolerance expected actual =
  check_bool
    (Printf.sprintf "%s: expected ~%f, got %f" msg expected actual)
    true
    (expected = 0.0 || abs_float (actual -. expected) /. Float.max expected 1.0 <= tolerance)

let test_edge_count () =
  let g = graph () in
  let cat = Catalog.create g in
  check_int "edge count = m" (Graph.num_edges g)
    (Catalog.edge_count cat ~elabel:0 ~slabel:0 ~dlabel:0)

let test_avg_partition_size () =
  let g = graph () in
  let cat = Catalog.create g in
  let avg = Catalog.avg_partition_size cat ~dir:Graph.Fwd ~slabel:0 ~elabel:0 ~nlabel:0 in
  near "avg out-degree" ~tolerance:1e-9
    (float_of_int (Graph.num_edges g) /. float_of_int (Graph.num_vertices g))
    avg

let test_entry_triangle_mu () =
  (* mu of extending an edge to the asymmetric triangle, with full sampling
     (z >= m), equals exact #triangles / #edges. *)
  let g = graph () in
  let cat = Catalog.create ~z:1_000_000 g in
  let q = Patterns.asymmetric_triangle in
  match Catalog.entry cat q ~new_vertex:2 with
  | None -> Alcotest.fail "entry expected"
  | Some e ->
      let triangles = Naive.count g q in
      let exact = float_of_int triangles /. float_of_int (Graph.num_edges g) in
      near "triangle mu" ~tolerance:0.02 exact e.Catalog.mu;
      check_int "two descriptors" 2 (List.length e.Catalog.sizes);
      check_bool "samples = edges" true (e.Catalog.samples = Graph.num_edges g)

let test_entry_sampling_approximates () =
  let g = graph () in
  let full = Catalog.create ~z:1_000_000 g in
  let sampled = Catalog.create ~z:500 g in
  let q = Patterns.asymmetric_triangle in
  let mu_full = (Option.get (Catalog.entry full q ~new_vertex:2)).Catalog.mu in
  let mu_sampled = (Option.get (Catalog.entry sampled q ~new_vertex:2)).Catalog.mu in
  near "sampled mu near exact" ~tolerance:0.5 mu_full mu_sampled

let test_entry_isomorphic_shared () =
  let g = graph () in
  let cat = Catalog.create ~z:200 g in
  let q1 = Patterns.asymmetric_triangle in
  (* Isomorphic copy with permuted vertex names: extension of the same shape
     must hit the same memoized entry. *)
  let q2 = Query.relabel_vertices q1 [| 1; 2; 0 |] in
  ignore (Catalog.entry cat q1 ~new_vertex:2);
  let n1 = Catalog.num_entries cat in
  ignore (Catalog.entry cat q2 ~new_vertex:0);
  check_int "no new entry for isomorphic extension" n1 (Catalog.num_entries cat)

let test_entry_oversize_none () =
  let g = graph () in
  let cat = Catalog.create ~h:2 g in
  check_bool "4-vertex pattern with h=2 has no entry" true
    (Catalog.entry cat Patterns.diamond_x ~new_vertex:3 = None)

let test_mu_fallback_oversize () =
  let g = graph () in
  let cat = Catalog.create ~h:2 ~z:500 g in
  (* Extending the 2-path prefix of diamond-X (a1,a2,a3) by a4: with h=2 the
     4-vertex pattern is missing; the fallback must return something
     sane (finite, non-negative). *)
  let mu_of cat =
    Cost_model.mu (Cost_model.create cat Patterns.diamond_x) ~child:(Bitset.of_list [ 0; 1; 2 ])
      ~v:3
  in
  let mu = mu_of cat in
  check_bool "fallback mu finite" true (Float.is_finite mu && mu >= 0.0);
  (* And it should not exceed the direct h=3 estimate wildly: the fallback is
     a minimum over sub-pattern estimates, each >= true selectivity
     in expectation. *)
  let cat3 = Catalog.create ~h:3 ~z:500 g in
  let mu3 = mu_of cat3 in
  check_bool "h=3 direct entry exists" true (mu3 >= 0.0)

let test_estimate_cardinality_edge () =
  let g = graph () in
  let cat = Catalog.create g in
  let q = Query.unlabeled_edges 2 [ (0, 1) ] in
  near "edge cardinality exact" ~tolerance:1e-9
    (float_of_int (Graph.num_edges g))
    (Cost_model.estimate_cardinality cat q)

let test_estimate_cardinality_triangle () =
  let g = graph () in
  let cat = Catalog.create ~z:1_000_000 g in
  let q = Patterns.asymmetric_triangle in
  let truth = float_of_int (Naive.count g q) in
  let est = Cost_model.estimate_cardinality cat q in
  check_bool
    (Printf.sprintf "triangle estimate within 2x (est %f truth %f)" est truth)
    true
    (Catalog.q_error ~estimate:est ~truth <= 2.0)

let test_estimate_cardinality_labeled () =
  let g = labeled () in
  let cat = Catalog.create ~z:1_000_000 g in
  let rng = Rng.create 3 in
  let q = Patterns.randomize_edge_labels rng Patterns.asymmetric_triangle ~num_elabels:2 in
  let truth = float_of_int (Naive.count g q) in
  let est = Cost_model.estimate_cardinality cat q in
  check_bool
    (Printf.sprintf "labeled triangle within 3x (est %f truth %f)" est truth)
    true
    (Catalog.q_error ~estimate:est ~truth <= 3.0)

(* Every sampled edge gets one walk, so an entry whose matches hang off
   high-id edges still measures them. On google-0.5 Q4 (a diamond with a
   tail, 58,063 matches) has an entry whose matches do: a sampler that
   spends its budget on the lowest-id edges reads μ = 0 there, and §5.2's
   minimum over removals makes the whole estimate 0. *)
let test_estimate_cardinality_google_q4 () =
  let g = Generators.dataset ~scale:0.5 Generators.Google in
  let est = Cost_model.estimate_cardinality (Catalog.create g) (Patterns.q 4) in
  check_bool (Printf.sprintf "Q4 estimate %f > 0" est) true (est > 0.0)

let test_catalogue_beats_independence_on_triangle () =
  (* The headline of Appendix B: on cyclic patterns the catalogue's q-error
     is much smaller than the independence estimator's. *)
  let g = graph () in
  let cat = Catalog.create ~z:2000 g in
  let q = Patterns.asymmetric_triangle in
  let truth = float_of_int (Naive.count g q) in
  let cat_err = Catalog.q_error ~estimate:(Cost_model.estimate_cardinality cat q) ~truth in
  let ind_err = Catalog.q_error ~estimate:(Independence.estimate g q) ~truth in
  check_bool
    (Printf.sprintf "catalogue (%.1f) beats independence (%.1f)" cat_err ind_err)
    true (cat_err < ind_err)

let test_build_exhaustive_unlabeled_h2 () =
  (* Unlabeled, h=2: extensions of the single-edge pattern = per existing
     vertex {none, fwd, bwd} minus all-none = 3^2 - 1 = 8 entries — the
     paper's Table 11 count for Amazon at h=2. *)
  let g = Generators.erdos_renyi (Rng.create 5) ~n:60 ~m:240 in
  let cat = Catalog.create ~h:2 ~z:50 g in
  check_int "8 entries" 8 (Catalog.build_exhaustive cat)

let test_build_exhaustive_h3_count_grows () =
  let g = Generators.erdos_renyi (Rng.create 5) ~n:60 ~m:240 in
  let c2 = Catalog.create ~h:2 ~z:50 g in
  let c3 = Catalog.create ~h:3 ~z:50 g in
  let n2 = Catalog.build_exhaustive c2 in
  let n3 = Catalog.build_exhaustive c3 in
  check_bool (Printf.sprintf "h=3 (%d) >> h=2 (%d)" n3 n2) true (n3 > 5 * n2)

let test_q_error () =
  near "exact" ~tolerance:1e-9 1.0 (Catalog.q_error ~estimate:10.0 ~truth:10.0);
  near "over" ~tolerance:1e-9 4.0 (Catalog.q_error ~estimate:40.0 ~truth:10.0);
  near "under" ~tolerance:1e-9 4.0 (Catalog.q_error ~estimate:10.0 ~truth:40.0);
  near "zero clamp" ~tolerance:1e-9 5.0 (Catalog.q_error ~estimate:5.0 ~truth:0.0)

let test_independence_on_path_reasonable () =
  (* Independence underestimates paths on skewed graphs (it misses the
     sum-of-squares degree effect) but degrades far more on cyclic
     patterns — the contrast Appendix B reports. *)
  let g = graph () in
  let truth q = float_of_int (Naive.count g q) in
  let err q = Catalog.q_error ~estimate:(Independence.estimate g q) ~truth:(truth q) in
  let path_err = err (Patterns.path 3) in
  let tri_err = err Patterns.asymmetric_triangle in
  check_bool
    (Printf.sprintf "path (%.1f) better than triangle (%.1f)" path_err tri_err)
    true
    (path_err *. 2.0 < tri_err)

let test_descriptor_size_sane () =
  let g = graph () in
  let cat = Catalog.create ~z:1000 g in
  let q = Patterns.asymmetric_triangle in
  (* Descriptor sources for extending to a3: a1 fwd, a2 fwd. *)
  let s1 = Catalog.descriptor_size cat q ~new_vertex:2 ~src:0 ~dir:Graph.Fwd ~elabel:0 in
  let s2 = Catalog.descriptor_size cat q ~new_vertex:2 ~src:1 ~dir:Graph.Fwd ~elabel:0 in
  check_bool "sizes positive" true (s1 > 0.0 && s2 > 0.0);
  (* Sources of scanned edges are out-degree-biased: their average forward
     list should be at least the global average. *)
  let global = Catalog.avg_partition_size cat ~dir:Graph.Fwd ~slabel:0 ~elabel:0 ~nlabel:0 in
  check_bool "edge-source bias" true (s1 >= global *. 0.8)

let suite =
  [
    ( "catalog.stats",
      [
        Alcotest.test_case "edge count" `Quick test_edge_count;
        Alcotest.test_case "avg partition size" `Quick test_avg_partition_size;
        Alcotest.test_case "triangle mu exact" `Slow test_entry_triangle_mu;
        Alcotest.test_case "sampling approximates" `Slow test_entry_sampling_approximates;
        Alcotest.test_case "isomorphic entries shared" `Quick test_entry_isomorphic_shared;
        Alcotest.test_case "oversize -> None" `Quick test_entry_oversize_none;
        Alcotest.test_case "mu fallback" `Quick test_mu_fallback_oversize;
        Alcotest.test_case "descriptor sizes" `Quick test_descriptor_size_sane;
      ] );
    ( "catalog.cardinality",
      [
        Alcotest.test_case "edge exact" `Quick test_estimate_cardinality_edge;
        Alcotest.test_case "triangle" `Slow test_estimate_cardinality_triangle;
        Alcotest.test_case "labeled triangle" `Slow test_estimate_cardinality_labeled;
        Alcotest.test_case "beats independence" `Slow test_catalogue_beats_independence_on_triangle;
        Alcotest.test_case "q-error" `Quick test_q_error;
        Alcotest.test_case "independence on path" `Quick test_independence_on_path_reasonable;
        Alcotest.test_case "google Q4 not zero" `Quick test_estimate_cardinality_google_q4;
      ] );
    ( "catalog.exhaustive",
      [
        Alcotest.test_case "h=2 unlabeled = 8" `Quick test_build_exhaustive_unlabeled_h2;
        Alcotest.test_case "h=3 grows" `Slow test_build_exhaustive_h3_count_grows;
      ] );
  ]
