open Gf_query
module Counters = Gf_exec.Counters
module Exec = Gf_exec.Exec
module Plan = Gf_plan.Plan
module Ghd = Gf_ghd.Ghd
module Parallel = Gf_exec.Parallel
module Graph = Gf_graph.Graph
module Graph_io = Gf_graph.Graph_io
module Generators = Gf_graph.Generators
module Catalog = Gf_catalog.Catalog
module Rng = Gf_util.Rng
module Bitset = Gf_util.Bitset
module Timing = Gf_util.Timing

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_counters_merge () =
  let a = Counters.create () and b = Counters.create () in
  a.Counters.icost <- 10;
  a.Counters.output <- 2;
  a.Counters.produced <- 5;
  b.Counters.icost <- 7;
  b.Counters.cache_hits <- 3;
  let m = Counters.merge [ a; b ] in
  check_int "icost" 17 m.Counters.icost;
  check_int "output" 2 m.Counters.output;
  check_int "cache" 3 m.Counters.cache_hits;
  check_int "intermediate" 3 (Counters.intermediate m);
  check_bool "printable" true (String.length (Format.asprintf "%a" Counters.pp m) > 0)

let test_timing () =
  let t, v = Timing.time (fun () -> 42) in
  check_int "result" 42 v;
  check_bool "non-negative" true (t >= 0.0)

let test_graph_io_bad_files () =
  let with_file content f =
    let path = Filename.temp_file "gf_bad" ".graph" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        f path)
  in
  let fails content =
    with_file content (fun path ->
        try
          ignore (Graph_io.load path);
          false
        with Failure _ -> true)
  in
  check_bool "empty" true (fails "");
  check_bool "bad header" true (fails "not a graph\n");
  check_bool "bad sizes" true (fails "graphflow v1\nnope\n");
  check_bool "edge count mismatch" true (fails "graphflow v1\n2 5 1 1\ne 0 1 0\n");
  check_bool "garbage line" true (fails "graphflow v1\n2 1 1 1\nx y z\n")

let test_ghd_q10_decomposition () =
  (* Appendix A reports EH's minimum-width GHDs for Q10 at width 2 (diamond
     joined with triangle). Our enumeration allows edge covers shared
     between bags and finds a strictly better width-3/2 decomposition: the
     three triangles (a1a2a3), (a2a3a4), (a4a5a6) in a path — every bag an
     induced triangle, running intersection satisfied. The diamond+triangle
     decomposition must also be present at width 2. *)
  let d = Ghd.min_width_decomposition (Patterns.q 10) in
  check_bool "min width 1.5" true (abs_float (d.Ghd.width -. 1.5) < 1e-6);
  check_int "three triangle bags" 3 (Array.length d.Ghd.bags);
  Array.iter (fun b -> check_int "bag is a triangle" 3 (Bitset.cardinal b)) d.Ghd.bags;
  let all = Ghd.decompositions (Patterns.q 10) in
  check_bool "EH's diamond+triangle GHD also enumerated" true
    (List.exists
       (fun d ->
         Array.length d.Ghd.bags = 2
         && List.sort compare (Array.to_list d.Ghd.bags)
            = [ Bitset.of_list [ 0; 1; 2; 3 ]; Bitset.of_list [ 3; 4; 5 ] ])
       all)

let test_ghd_q9_exists () =
  (* Q9 admits a 3-bag decomposition (two triangles + the closing pair). *)
  let all = Ghd.decompositions (Patterns.q 9) in
  check_bool "has decompositions" true (List.length all >= 1);
  let d = Ghd.min_width_decomposition (Patterns.q 9) in
  check_bool "min width <= 2" true (d.Ghd.width <= 2.0 +. 1e-9)

let test_parallel_chunk_sizes () =
  let g = Generators.holme_kim (Rng.create 83) ~n:200 ~m_per:4 ~p_triad:0.4 ~recip:0.3 in
  let q = Patterns.asymmetric_triangle in
  let plan = Plan.wco q [| 0; 1; 2 |] in
  let expected = Exec.count g plan in
  List.iter
    (fun chunk ->
      let r = Parallel.run ~domains:2 ~chunk g plan in
      check_int
        (Printf.sprintf "chunk %d" chunk)
        expected r.counters.Counters.output)
    [ 1; 7; 64; 100_000 ]

let test_clique_orientations () =
  let acyclic = Patterns.clique 4 ~cyclic:false in
  let cyclic = Patterns.clique 4 ~cyclic:true in
  check_int "both 6 edges" (Query.num_edges acyclic) (Query.num_edges cyclic);
  check_bool "different orientation" false (Canon.iso acyclic cyclic);
  (* The acyclic orientation has a source vertex (out-degree 3). *)
  let out_deg q v =
    Array.fold_left (fun acc (e : Query.edge) -> if e.src = v then acc + 1 else acc) 0 q.Query.edges
  in
  check_int "acyclic source" 3 (out_deg acyclic 0);
  check_bool "cyclic has no 3-source at 0" true (out_deg cyclic 0 < 3)

let test_catalog_avg_partition_labeled () =
  let g =
    Graph.build ~num_vlabels:2 ~num_elabels:1 ~vlabel:[| 0; 0; 1; 1 |]
      ~edges:[| (0, 2, 0); (0, 3, 0); (1, 2, 0) |]
  in
  let cat = Catalog.create g in
  (* label-0 vertices {0,1}: forward partitions to label 1: sizes 2 and 1. *)
  let avg = Catalog.avg_partition_size cat ~dir:Graph.Fwd ~slabel:0 ~elabel:0 ~nlabel:1 in
  check_bool "avg 1.5" true (abs_float (avg -. 1.5) < 1e-9);
  let avg0 = Catalog.avg_partition_size cat ~dir:Graph.Fwd ~slabel:0 ~elabel:0 ~nlabel:0 in
  check_bool "no l0 targets" true (avg0 = 0.0)

let test_exec_collect_schema () =
  let g =
    Graph.build ~num_vlabels:1 ~num_elabels:1 ~vlabel:(Array.make 3 0)
      ~edges:[| (0, 1, 0); (1, 2, 0); (0, 2, 0) |]
  in
  let q = Patterns.asymmetric_triangle in
  let plan = Plan.wco q [| 1; 2; 0 |] in
  (* Schema order follows the ordering: a2 a3 a1. *)
  Alcotest.(check (array int)) "schema" [| 1; 2; 0 |] (Plan.vars plan);
  let rows = ref [] in
  let _ = Exec.run_gov ~sink:(fun t -> rows := Array.copy t :: !rows) g plan in
  match !rows with
  | [ t ] -> Alcotest.(check (array int)) "tuple in schema order" [| 1; 2; 0 |] t
  | l -> Alcotest.failf "expected 1 triangle, got %d" (List.length l)

let test_db_cypher_end_to_end () =
  let g = Generators.holme_kim (Rng.create 85) ~n:150 ~m_per:4 ~p_triad:0.5 ~recip:0.3 in
  let db = Graphflow.Db.create ~z:100 g in
  let q1, _ = Graphflow.Cypher.parse "MATCH (a)-->(b), (b)-->(c), (a)-->(c)" in
  let q2 = Graphflow.Db.parse_query "a->b, b->c, a->c" in
  check_int "cypher = dsl" (Graphflow.Db.count db q2) (Graphflow.Db.count db q1)

let suite =
  [
    ( "misc",
      [
        Alcotest.test_case "counters merge" `Quick test_counters_merge;
        Alcotest.test_case "timing" `Quick test_timing;
        Alcotest.test_case "graph io errors" `Quick test_graph_io_bad_files;
        Alcotest.test_case "ghd q10 (Appendix A)" `Quick test_ghd_q10_decomposition;
        Alcotest.test_case "ghd q9" `Quick test_ghd_q9_exists;
        Alcotest.test_case "parallel chunks" `Quick test_parallel_chunk_sizes;
        Alcotest.test_case "clique orientations" `Quick test_clique_orientations;
        Alcotest.test_case "catalog partitions" `Quick test_catalog_avg_partition_labeled;
        Alcotest.test_case "collect schema" `Quick test_exec_collect_schema;
        Alcotest.test_case "cypher end-to-end" `Quick test_db_cypher_end_to_end;
      ] );
  ]
