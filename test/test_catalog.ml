open Gf_query
module Catalog = Gf_catalog.Catalog
module Cost_model = Gf_opt.Cost_model
module Bitset = Gf_util.Bitset
module Independence = Gf_catalog.Independence
module Graph = Gf_graph.Graph
module Generators = Gf_graph.Generators
module Naive = Gf_exec.Naive
module Rng = Gf_util.Rng
module Wander = Gf_catalog.Wander

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

(* ---------- golden entries ---------- *)

(* Every entry that planning creates, rendered bit for bit ([%h]): Q1-Q14
   on [exec.golden]'s graph and their labeled variants on its labeled
   copy, 20 templates cut out of a small human analogue as labeled-short
   sends them, Q7 and Q14 at h = 4 and z = 100, and Q1-Q14 on google 0.02.
   Then [Wander.estimate] of Q1-Q14 and an exhaustive h = 3 catalogue, the
   other two callers of the walk kernel. Weights and lengths are small
   integers, so most sums are exact in any order; the gallop steps' log2
   terms and the divisions are not, hence a graph with hubs. *)
let golden_entry_lines () =
  let work (w : Catalog.work) = Printf.sprintf "%h/%h/%h" w.merged w.galloped w.probed in
  let entry (code, (e : Catalog.entry)) =
    Printf.sprintf "%s mu=%h total=%h samples=%d sizes=[%s] kernel=[%s] all=%s" code e.mu
      e.total_size e.samples
      (String.concat ";"
         (List.map
            (fun ((v, dir, el), s) ->
              Printf.sprintf "%d%c%d=%h" v
                (match dir with Graph.Fwd -> 'f' | Graph.Bwd -> 'b')
                el s)
            e.sizes))
      (String.concat ";"
         (Array.to_list (Array.map (fun (a, b) -> work a ^ "," ^ work b) e.kernel)))
      (work e.all_work)
  in
  let planned ?h ?z g qs =
    let cat = Catalog.create ?h ?z g in
    List.iter (fun q -> ignore (Gf_opt.Planner.plan cat q)) qs;
    List.map entry (Catalog.entries cat)
  in
  let qs = List.init 14 (fun i -> Patterns.q (i + 1)) in
  let human = Generators.dataset ~scale:0.25 Generators.Human in
  let rng = Rng.create 17 in
  let templates =
    List.init 20 (fun i ->
        Gf_baseline.Query_gen.from_data human rng ~num_vertices:(3 + (i mod 5))
          ~dense:(i mod 2 = 0))
  in
  let golden = Test_exec.golden_graph () in
  let exhaustive = Catalog.create ~h:3 ~z:50 (Generators.erdos_renyi (Rng.create 5) ~n:60 ~m:240) in
  ignore (Catalog.build_exhaustive exhaustive);
  let est = Rng.create 11 in
  planned golden qs
  @ planned (Test_exec.labeled_golden_graph ()) (List.map Test_exec.labeled_variant qs)
  @ planned human templates
  (* Five-vertex entries (four lists) and pools larger than z. *)
  @ planned ~h:4 ~z:100 golden [ Patterns.q 7; Patterns.q 14 ]
  (* Hubs: gallop steps, whose log2 sums round at every weight. *)
  @ planned (Generators.dataset ~scale:0.02 Generators.Google) qs
  @ List.mapi
      (fun i q ->
        Printf.sprintf "estimate Q%d %h" (i + 1) (Wander.estimate golden q ~walks:300 est))
      qs
  @ List.map entry (Catalog.entries exhaustive)

(* Generated from the sampler before the walk kernel moved to C (the
   OCaml per-step walk loop): its digest and five of its 904 lines. *)
let golden_entry_digest = "89164bed17a253e41e32e3d9139b6e25"

let golden_entry_samples =
  [
    "3|0,0,0,|0|0>1@0|0>2@0|1>2@0 mu=0x1.4fe852ddf71f1p+0 total=0x1.1493fa14b77dcp+5 samples=346 sizes=[1b0=0x1.5133caba736cp+3;2b0=0x1.808e0ecc35459p+4] kernel=[0x1.3bbee3e267957p+2/0x0p+0/0x1.6a8b1927f4297p+0,0x0p+0/0x0p+0/0x0p+0;0x1.3bbee3e267957p+2/0x0p+0/0x1.6a8b1927f4297p+0,0x0p+0/0x0p+0/0x0p+0] all=0x1.3bbee3e267957p+2/0x0p+0/0x1.6a8b1927f4297p+0";
    "5|0,0,0,0,0,|0|0>1@0|0>2@0|0>3@0|0>4@0|1>2@0|1>3@0|1>4@0|2>3@0|2>4@0|3>4@0 mu=0x1.5b1e5f75270dp-1 total=0x1.ffdd49c34115bp+5 samples=29 sizes=[1b0=0x1.9d49c34115b1ep+1;2b0=0x1.e8f2fba938682p+3;3b0=0x1.9797dd49c3411p+3;4b0=0x1.05e5f75270d04p+5] kernel=[0x1.70456c797dd4ap+2/0x0p+0/0x0p+0,0x1.1e5f75270d045p+4/0x0p+0/0x1.16c797dd49c34p+1;0x1.e08ad8f2fba94p+1/0x0p+0/0x1.270d0456c797ep-3,0x1.f86822b63cbefp+3/0x0p+0/0x1.97dd49c34115bp-1;0x1.c115b1e5f7527p+1/0x0p+0/0x1.15b1e5f75270dp-6,0x1.8797dd49c3411p+3/0x0p+0/0x1.797dd49c34116p-1;0x1.e3cbeea4e1a09p+1/0x0p+0/0x1.c34115b1e5f75p-2,0x1.b5270d0456c79p+3/0x0p+0/0x1.49c34115b1e5fp-3] all=0x1.20f2fba938682p+4/0x0p+0/0x1.34115b1e5f752p-1";
    "estimate Q1 0x1.eec7ae147ae14p+8";
    "4|0,0,0,0,|0|0>1@0|0>2@0|1>3@0|2>3@0|3>0@0 mu=0x1.942e313b0e04fp-7 total=0x1.e5741610bb37cp+4 samples=1000 sizes=[1b0=0x1.d288def54ea2bp+1;2b0=0x1.17ce654d3b22cp+2;3f0=0x1.652f60dec29acp+4] kernel=[0x1.b5991ad7ee845p-3/0x0p+0/0x1.c5dfeff07ac26p-5,0x1.49c086f785953p+2/0x0p+0/0x1.267d9736dd32cp+0;0x1.56ccfe59ab9afp-2/0x0p+0/0x1.376aef5fdca34p-6,0x1.1f024559fa8a4p+2/0x0p+0/0x1.16758f743e65ap+0;0x1.7e808fc0dfb25p-3/0x1.4170af68c0b7cp-8/0x1.9ffde9516632p-5,0x1.215068aea1dfp+1/0x0p+0/0x1.ade8ebfe75e71p-3] all=0x1.5db25dbb02354p+1/0x0p+0/0x1.5cde56490d321p-4";
    "4|0,0,0,0,|0|1>0@0|2>1@0|3>2@0 mu=0x1.eac54eac54eacp+1 total=0x1.eac54eac54eacp+1 samples=50 sizes=[1f0=0x1.eac54eac54eacp+1] kernel=[0x0p+0/0x0p+0/0x0p+0,0x0p+0/0x0p+0/0x0p+0] all=0x0p+0/0x0p+0/0x0p+0";
  ]

let test_golden_entries () =
  List.iter
    (fun mode ->
      let name = Gf_util.Sorted.kernel_mode_to_string mode in
      let lines = Gf_util.Sorted.with_kernel_mode mode golden_entry_lines in
      Alcotest.(check int) (name ^ ": lines") 904 (List.length lines);
      List.iter
        (fun l ->
          check_bool
            (name ^ ": has " ^ List.hd (String.split_on_char ' ' l))
            true (List.mem l lines))
        golden_entry_samples;
      Alcotest.(check string) (name ^ ": digest") golden_entry_digest
        (Digest.to_hex (Digest.string (String.concat "\n" lines))))
    [ Gf_util.Sorted.Scalar; Gf_util.Sorted.Auto ]

(* Request threads share one Db's catalogue: four threads planning the
   same never-seen templates, yielding between them so that they race on
   the same entries, pick what one thread picks and leave the same
   entries. *)
let test_shared_by_threads () =
  let g = Generators.dataset ~scale:0.25 Generators.Human in
  let rng = Rng.create 31 in
  let templates =
    List.init 40 (fun i ->
        Gf_baseline.Query_gen.from_data g rng ~num_vertices:(3 + (i mod 5)) ~dense:(i mod 2 = 0))
  in
  let picks db =
    List.map
      (fun q ->
        Thread.yield ();
        Gf_plan.Plan.signature (fst (Graphflow.Db.plan db q)))
      templates
  in
  let single = Graphflow.Db.create g in
  let expected = picks single in
  let shared = Graphflow.Db.create g in
  let got = Array.make 4 [] in
  List.iter Thread.join
    (List.init 4 (fun i -> Thread.create (fun () -> got.(i) <- picks shared) ()));
  Array.iteri
    (fun i p -> Alcotest.(check (list string)) (Printf.sprintf "thread %d picks" i) expected p)
    got;
  let entries db = Catalog.entries (Graphflow.Db.catalog db) in
  check_int "entries" (List.length (entries single)) (List.length (entries shared));
  check_bool "same entries" true (compare (entries single) (entries shared) = 0)

let test_sampled_counter () =
  let sampled () =
    Gf_exec.Metrics.counter_value (Gf_exec.Metrics.counter "gf_catalog_entries_sampled_total")
  in
  let before = sampled () in
  let cat = Catalog.create (graph ()) in
  ignore (Gf_opt.Planner.plan cat (Patterns.q 5));
  check_bool "entries sampled" true (Catalog.num_entries cat > 0);
  check_int "one count per entry" (Catalog.num_entries cat) (sampled () - before)

let suite =
  [
    ("catalog.shared", [ Alcotest.test_case "4 threads = 1 thread" `Quick test_shared_by_threads ]);
    ("catalog.golden", [ Alcotest.test_case "entries" `Quick test_golden_entries ]);
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
        Alcotest.test_case "sampled counter" `Quick test_sampled_counter;
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
