open Gf_query
module Simplex = Gf_lp.Simplex
module Edge_cover = Gf_lp.Edge_cover
module Ghd = Gf_ghd.Ghd
module Catalog = Gf_catalog.Catalog
module Exec = Gf_exec.Exec
module Naive = Gf_exec.Naive
module Generators = Gf_graph.Generators
module Rng = Gf_util.Rng
module Bitset = Gf_util.Bitset

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let near msg expected actual =
  check_bool (Printf.sprintf "%s: %f vs %f" msg expected actual) true
    (abs_float (expected -. actual) < 1e-6)

(* ---------- simplex ---------- *)

let test_simplex_basic () =
  (* min x + y s.t. x + y >= 2, x >= 0.5 -> objective 2. *)
  match Simplex.minimize ~c:[| 1.0; 1.0 |] ~a:[| [| 1.0; 1.0 |]; [| 1.0; 0.0 |] |] ~b:[| 2.0; 0.5 |] with
  | None -> Alcotest.fail "feasible"
  | Some (obj, x) ->
      near "objective" 2.0 obj;
      check_bool "x >= 0.5" true (x.(0) >= 0.5 -. 1e-9)

let test_simplex_fractional () =
  (* Triangle cover LP directly: 3 vars, each vertex covered by 2 edges. *)
  let a = [| [| 1.; 1.; 0. |]; [| 1.; 0.; 1. |]; [| 0.; 1.; 1. |] |] in
  match Simplex.minimize ~c:[| 1.; 1.; 1. |] ~a ~b:[| 1.; 1.; 1. |] with
  | None -> Alcotest.fail "feasible"
  | Some (obj, _) -> near "triangle 3/2" 1.5 obj

let test_simplex_infeasible () =
  (* x >= 2 and -x >= 1 is infeasible (rows with negative b get flipped). *)
  match Simplex.minimize ~c:[| 1.0 |] ~a:[| [| 1.0 |]; [| -1.0 |] |] ~b:[| 2.0; 1.0 |] with
  | None -> ()
  | Some _ -> Alcotest.fail "expected infeasible"

let test_simplex_degenerate_zero_rows () =
  match Simplex.minimize ~c:[| 2.0 |] ~a:[| [| 1.0 |] |] ~b:[| 0.0 |] with
  | None -> Alcotest.fail "feasible"
  | Some (obj, _) -> near "zero rhs" 0.0 obj

(* ---------- fractional edge cover ---------- *)

let test_cover_known_values () =
  near "single edge" 1.0 (Edge_cover.fractional_cover (Patterns.path 2));
  near "path3" 2.0 (Edge_cover.fractional_cover (Patterns.path 3));
  near "triangle" 1.5 (Edge_cover.fractional_cover Patterns.asymmetric_triangle);
  near "4-clique" 2.0 (Edge_cover.fractional_cover (Patterns.clique 4 ~cyclic:false));
  near "5-clique" 2.5 (Edge_cover.fractional_cover (Patterns.clique 5 ~cyclic:false));
  near "4-cycle" 2.0 (Edge_cover.fractional_cover (Patterns.cycle 4));
  near "5-cycle" 2.5 (Edge_cover.fractional_cover (Patterns.cycle 5));
  near "6-cycle" 3.0 (Edge_cover.fractional_cover (Patterns.cycle 6));
  (* a1 and a4 have disjoint incident edge sets, each needing total weight
     1, so the cover is 2 (the 3/2 of Figure 1c is the *bag* width). *)
  near "diamond-x" 2.0 (Edge_cover.fractional_cover Patterns.diamond_x);
  near "4-star" 4.0 (Edge_cover.fractional_cover (Patterns.q 11))

let test_cover_subset () =
  let q = Patterns.diamond_x in
  near "triangle subset" 1.5 (Edge_cover.fractional_cover_subset q (Bitset.of_list [ 0; 1; 2 ]));
  near "edge subset" 1.0 (Edge_cover.fractional_cover_subset q (Bitset.of_list [ 0; 1 ]))

(* Property: for any connected query, n/2 <= fractional cover <= greedy
   integral cover (each edge covers two vertices; any integral cover is
   feasible for the LP). And the min-width decomposition's width never
   exceeds the single-bag width. *)
let prop_cover_bounds =
  QCheck2.Test.make ~name:"fractional cover bounds" ~count:60
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let n = 3 + Gf_util.Rng.int rng 4 in
      let q = Patterns.random_query rng ~num_vertices:n ~dense:(Gf_util.Rng.bool rng) ~num_vlabels:1 in
      let fc = Edge_cover.fractional_cover q in
      (* Greedy integral cover: repeatedly take an edge covering an
         uncovered vertex. *)
      let covered = ref Bitset.empty in
      let greedy = ref 0 in
      Array.iter
        (fun (e : Query.edge) ->
          if not (Bitset.mem e.Query.src !covered && Bitset.mem e.Query.dst !covered) then begin
            incr greedy;
            covered := Bitset.add e.Query.src (Bitset.add e.Query.dst !covered)
          end)
        q.Query.edges;
      let lower = float_of_int n /. 2.0 in
      if fc < lower -. 1e-6 then QCheck2.Test.fail_reportf "cover %f below n/2" fc
      else if fc > float_of_int !greedy +. 1e-6 then
        QCheck2.Test.fail_reportf "cover %f above greedy %d" fc !greedy
      else begin
        let d = Ghd.min_width_decomposition q in
        d.Ghd.width <= fc +. 1e-6
      end)

(* ---------- GHD ---------- *)

let test_ghd_triangle_single_bag () =
  let d = Ghd.min_width_decomposition Patterns.asymmetric_triangle in
  check_int "one bag" 1 (Array.length d.Ghd.bags);
  near "width 1.5" 1.5 d.Ghd.width

let test_ghd_diamond_x () =
  (* Diamond-X: two triangles joined on {a2,a3}, width 3/2 (Figure 1c's GHD). *)
  let d = Ghd.min_width_decomposition Patterns.diamond_x in
  near "width 1.5" 1.5 d.Ghd.width;
  check_int "two bags" 2 (Array.length d.Ghd.bags);
  let sorted = Array.to_list d.Ghd.bags |> List.sort compare in
  Alcotest.(check (list int)) "bags are the triangles"
    [ Bitset.of_list [ 0; 1; 2 ]; Bitset.of_list [ 1; 2; 3 ] ]
    sorted

let test_ghd_bowtie () =
  (* Q8 bowtie: two triangles sharing a3; EH's decomposition. *)
  let d = Ghd.min_width_decomposition (Patterns.q 8) in
  near "width 1.5" 1.5 d.Ghd.width;
  check_int "two bags" 2 (Array.length d.Ghd.bags)

let test_ghd_acyclic_star () =
  (* 4-star: single edges as bags give width 1. *)
  let d = Ghd.min_width_decomposition (Patterns.q 11) in
  near "width 1" 1.0 d.Ghd.width

let test_ghd_running_intersection_rejects () =
  (* The triangle's 3-bag edge decomposition violates RIP, so no
     multi-bag decomposition of the triangle may appear. *)
  let all = Ghd.decompositions Patterns.asymmetric_triangle in
  List.iter
    (fun d -> check_int "triangle only 1-bag" 1 (Array.length d.Ghd.bags))
    all

let graph () = Generators.holme_kim (Rng.create 55) ~n:140 ~m_per:3 ~p_triad:0.5 ~recip:0.35

let test_ghd_plans_correct () =
  let g = graph () in
  let cat = Catalog.create ~z:300 g in
  List.iter
    (fun i ->
      let q = Patterns.q i in
      let d = Ghd.min_width_decomposition q in
      List.iter
        (fun mode ->
          let p = Ghd.to_plan cat q d mode in
          check_int
            (Printf.sprintf "Q%d EH plan count" i)
            (Naive.count g q) (Exec.count g p))
        [ Ghd.Lexicographic; Ghd.Best_estimated; Ghd.Worst_estimated ])
    [ 1; 2; 3; 4; 8; 11; 12 ]

let test_ghd_good_not_slower_estimated () =
  let g = graph () in
  let cat = Catalog.create ~z:300 g in
  let q = Patterns.q 8 in
  let d = Ghd.min_width_decomposition q in
  let good = Ghd.to_plan cat q d Ghd.Best_estimated in
  let bad = Ghd.to_plan cat q d Ghd.Worst_estimated in
  let gi = (fst (Exec.run_gov g good)).Gf_exec.Counters.icost in
  let bi = (fst (Exec.run_gov g bad)).Gf_exec.Counters.icost in
  check_bool (Printf.sprintf "EH-g icost %d <= EH-b %d" gi bi) true (gi <= bi)

let test_bag_orders_and_custom_plan () =
  let g = graph () in
  let q = Patterns.diamond_x in
  let d = Ghd.min_width_decomposition q in
  let orders = Ghd.bag_orders q d in
  check_int "two bags of orders" 2 (Array.length orders);
  (* Every combination of bag orderings gives the same (correct) count. *)
  let expected = Naive.count g q in
  List.iter
    (fun o1 ->
      List.iter
        (fun o2 ->
          let p = Ghd.plan_with_orders q d [| o1; o2 |] in
          check_int "combo correct" expected (Exec.count g p))
        (List.filteri (fun i _ -> i < 2) orders.(1)))
    (List.filteri (fun i _ -> i < 2) orders.(0))

let suite =
  [
    ( "lp.simplex",
      [
        Alcotest.test_case "basic" `Quick test_simplex_basic;
        Alcotest.test_case "fractional" `Quick test_simplex_fractional;
        Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
        Alcotest.test_case "degenerate" `Quick test_simplex_degenerate_zero_rows;
      ] );
    ( "lp.edge_cover",
      [
        Alcotest.test_case "known values" `Quick test_cover_known_values;
        Alcotest.test_case "subsets" `Quick test_cover_subset;
        QCheck_alcotest.to_alcotest prop_cover_bounds;
      ] );
    ( "ghd",
      [
        Alcotest.test_case "triangle" `Quick test_ghd_triangle_single_bag;
        Alcotest.test_case "diamond-x" `Quick test_ghd_diamond_x;
        Alcotest.test_case "bowtie" `Quick test_ghd_bowtie;
        Alcotest.test_case "star" `Quick test_ghd_acyclic_star;
        Alcotest.test_case "RIP rejects" `Quick test_ghd_running_intersection_rejects;
        Alcotest.test_case "plans correct" `Slow test_ghd_plans_correct;
        Alcotest.test_case "good <= bad" `Quick test_ghd_good_not_slower_estimated;
        Alcotest.test_case "bag order combos" `Quick test_bag_orders_and_custom_plan;
      ] );
  ]
