open Gf_query
module Wander = Gf_catalog.Wander
module Catalog = Gf_catalog.Catalog
module Naive = Gf_exec.Naive
module Generators = Gf_graph.Generators
module Graph = Gf_graph.Graph
module Rng = Gf_util.Rng

let check_bool = Alcotest.(check bool)

let graph () = Generators.holme_kim (Rng.create 91) ~n:400 ~m_per:4 ~p_triad:0.5 ~recip:0.3

let test_triangle_unbiased () =
  let g = graph () in
  let q = Patterns.asymmetric_triangle in
  let truth = float_of_int (Naive.count g q) in
  let est = Wander.estimate g q ~walks:20_000 (Rng.create 1) in
  check_bool
    (Printf.sprintf "triangle est %f vs truth %f" est truth)
    true
    (Catalog.q_error ~estimate:est ~truth <= 1.3)

let test_diamond_x () =
  let g = graph () in
  let q = Patterns.diamond_x in
  let truth = float_of_int (Naive.count g q) in
  let est = Wander.estimate g q ~walks:40_000 (Rng.create 2) in
  check_bool
    (Printf.sprintf "diamond est %f vs truth %f" est truth)
    true
    (Catalog.q_error ~estimate:est ~truth <= 1.6)

let test_zero_matches () =
  (* A graph with no 3-cycles at all: a complete DAG. *)
  let n = 20 in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j, 0) :: !edges
    done
  done;
  let g =
    Graph.build ~num_vlabels:1 ~num_elabels:1 ~vlabel:(Array.make n 0)
      ~edges:(Array.of_list !edges)
  in
  let est = Wander.estimate g (Patterns.cycle 3) ~walks:500 (Rng.create 3) in
  check_bool "no cycles -> 0" true (est = 0.0)

let test_order_invariance_in_expectation () =
  let g = graph () in
  let q = Patterns.diamond_x in
  let truth = float_of_int (Naive.count g q) in
  List.iter
    (fun order ->
      let est = Wander.estimate_with_order g q ~order ~walks:40_000 (Rng.create 4) in
      check_bool
        (Printf.sprintf "order est %f vs truth %f" est truth)
        true
        (Catalog.q_error ~estimate:est ~truth <= 2.0))
    [ [| 0; 1; 2; 3 |]; [| 1; 2; 0; 3 |]; [| 2; 3; 1; 0 |] ]

let test_labeled () =
  let g = Graph.relabel (graph ()) (Rng.create 92) ~num_vlabels:2 ~num_elabels:2 in
  let q = Patterns.randomize_edge_labels (Rng.create 93) Patterns.asymmetric_triangle ~num_elabels:2 in
  let truth = float_of_int (Naive.count g q) in
  let est = Wander.estimate g q ~walks:20_000 (Rng.create 5) in
  check_bool
    (Printf.sprintf "labeled est %f vs truth %f" est truth)
    true
    (truth = 0.0 || Catalog.q_error ~estimate:est ~truth <= 2.0)

(* A second query edge between the first two vertices of the order
   filters the scan: a walk whose scanned data edge lacks the reverse edge
   dies there instead of counting every edge. *)
let test_parallel_scan_edges () =
  let g = graph () in
  let q = Query.unlabeled_edges 3 [ (0, 1); (1, 0); (1, 2) ] in
  let truth = float_of_int (Naive.count g q) in
  let est = Wander.estimate g q ~walks:20_000 (Rng.create 6) in
  check_bool
    (Printf.sprintf "reciprocal-edge est %f vs truth %f" est truth)
    true
    (truth > 0.0 && Catalog.q_error ~estimate:est ~truth <= 1.3)

(* Neither the walk nor the oracle enumerates the 12! connected orders of
   a 12-clique before starting: both take the first one. On the complete
   DAG of 14 vertices the acyclic 12-clique has C(14, 12) = 91 matches. On
   the complete digraph of 12 vertices every walk survives with weight
   132 * 10! = 12!, the exact count. *)
let test_twelve_clique () =
  let graph n edge =
    let edges =
      List.concat (List.init n (fun i -> List.filter_map (fun j -> edge i j) (List.init n Fun.id)))
    in
    Graph.build ~num_vlabels:1 ~num_elabels:1 ~vlabel:(Array.make n 0)
      ~edges:(Array.of_list edges)
  in
  let q = Patterns.clique 12 ~cyclic:false in
  let dag = graph 14 (fun i j -> if i < j then Some (i, j, 0) else None) in
  Alcotest.(check int) "naive count" 91 (Naive.count dag q);
  let complete = graph 12 (fun i j -> if i <> j then Some (i, j, 0) else None) in
  Alcotest.(check (float 0.0)) "walk estimate" 479001600.0
    (Wander.estimate complete q ~walks:100 (Rng.create 12))

let suite =
  [
    ( "catalog.wander",
      [
        Alcotest.test_case "triangle unbiased" `Quick test_triangle_unbiased;
        Alcotest.test_case "diamond" `Quick test_diamond_x;
        Alcotest.test_case "zero matches" `Quick test_zero_matches;
        Alcotest.test_case "order invariance" `Slow test_order_invariance_in_expectation;
        Alcotest.test_case "labeled" `Quick test_labeled;
        Alcotest.test_case "12-clique" `Quick test_twelve_clique;
        Alcotest.test_case "both scan edges checked" `Quick test_parallel_scan_edges;
      ] );
  ]
