open Gf_query
module Plan = Gf_plan.Plan
module Exec = Gf_exec.Exec
module Naive = Gf_exec.Naive
module Counters = Gf_exec.Counters
module Governor = Gf_exec.Governor
module Graph = Gf_graph.Graph
module Generators = Gf_graph.Generators
module Rng = Gf_util.Rng
module Join_table = Gf_exec.Join_table

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Small unlabeled test graph with a healthy mix of triangles and paths. *)
let small_graph () =
  Generators.holme_kim (Rng.create 77) ~n:300 ~m_per:4 ~p_triad:0.5 ~recip:0.3

let labeled_graph () =
  Graph.relabel (small_graph ()) (Rng.create 78) ~num_vlabels:2 ~num_elabels:2

let sort_tuples l = List.sort compare l

(* Reorder an exec tuple (in plan schema order) into query-vertex order. *)
let to_assignment schema tuple =
  let n = Array.length schema in
  let out = Array.make n (-1) in
  Array.iteri (fun i v -> out.(v) <- tuple.(i)) schema;
  out

let run ?cache g plan = fst (Exec.run_gov ?cache g plan)

let check_plan_matches_naive ?(distinct = false) g q plan label =
  let expected = Naive.collect ~distinct g q |> sort_tuples in
  let rows = ref [] in
  let _ = Exec.run_gov ~distinct ~sink:(fun t -> rows := Array.copy t :: !rows) g plan in
  let got =
    !rows
    |> List.map (to_assignment (Plan.vars plan))
    |> sort_tuples
  in
  Alcotest.(check (list (array int))) label expected got

let test_triangle_all_orders () =
  let g = small_graph () in
  let q = Patterns.asymmetric_triangle in
  let expected = Naive.count g q in
  check_bool "graph has triangles" true (expected > 0);
  List.iter
    (fun order ->
      let plan = Plan.wco q order in
      check_int
        (Printf.sprintf "order %s" (String.concat "" (Array.to_list order |> List.map string_of_int)))
        expected (Exec.count g plan))
    (Query.connected_orders q)

let test_triangle_tuples_match_naive () =
  let g = small_graph () in
  let q = Patterns.asymmetric_triangle in
  let plan = Plan.wco q [| 0; 1; 2 |] in
  check_plan_matches_naive g q plan "triangle tuples"

let test_diamond_x_all_orders () =
  let g = small_graph () in
  let q = Patterns.diamond_x in
  let expected = Naive.count g q in
  check_bool "graph has diamond-x" true (expected > 0);
  List.iter
    (fun order ->
      let plan = Plan.wco q order in
      check_int "diamond-x order" expected (Exec.count g plan))
    (Query.connected_orders q)

let test_labeled_query () =
  let g = labeled_graph () in
  let q =
    Query.create ~num_vertices:3 ~vlabels:[| 0; 1; 0 |]
      ~edges:
        [|
          { Query.src = 0; dst = 1; label = 0 };
          { Query.src = 1; dst = 2; label = 1 };
          { Query.src = 0; dst = 2; label = 0 };
        |]
      ()
  in
  let plan = Plan.wco q [| 0; 1; 2 |] in
  check_plan_matches_naive g q plan "labeled triangle";
  check_int "labeled count" (Naive.count g q) (Exec.count g plan)

let test_hash_join_diamond_x () =
  let g = small_graph () in
  let q = Patterns.diamond_x in
  let expected = Naive.count g q in
  (* Diamond-X as join of triangles (a1,a2,a3) and (a2,a3,a4) on {a2,a3} —
     the hybrid plan of Figure 1(c). *)
  let t1 = Plan.wco q [| 1; 2; 0 |] in
  let t2 = Plan.wco q [| 1; 2; 3 |] in
  let plan = Plan.hash_join q t1 t2 in
  check_int "hybrid = wco count" expected (Exec.count g plan);
  check_plan_matches_naive g q plan "hybrid tuples"

let test_bj_plan_four_cycle () =
  let g = small_graph () in
  let q = Patterns.cycle 4 in
  let expected = Naive.count g q in
  (* 4-cycle as a join of two 2-paths: {a1,a2,a3} path and {a3,a4,a1} path,
     joined on {a1,a3}. *)
  let p1 = Plan.wco q [| 0; 1; 2 |] in
  let p2 = Plan.wco q [| 2; 3; 0 |] in
  let plan = Plan.hash_join q p1 p2 in
  check_int "bj 4-cycle" expected (Exec.count g plan);
  check_plan_matches_naive g q plan "bj tuples"

let test_extend_after_join () =
  (* A plan outside GHD space: join two edges into a path, then intersect to
     close the triangle... here: tailed triangle = join(edge a1a2, edge a2a4)
     -> path, then extend a3 by 2-way intersection. *)
  let g = small_graph () in
  let q = Patterns.tailed_triangle in
  let e01 = List.find (fun (e : Query.edge) -> e.src = 0 && e.dst = 1) (Array.to_list q.Query.edges) in
  let e13 = List.find (fun (e : Query.edge) -> e.src = 1 && e.dst = 3) (Array.to_list q.Query.edges) in
  let p = Plan.hash_join q (Plan.scan q e01) (Plan.scan q e13) in
  let plan = Plan.extend q p 2 in
  check_int "extend after join" (Naive.count g q) (Exec.count g plan);
  check_plan_matches_naive g q plan "extend-after-join tuples"

let test_cache_semantics () =
  let g = small_graph () in
  let q = Patterns.diamond_x in
  (* Ordering a2 a3 a1 a4 (0-indexed: 1 2 0 3): the last E/I re-intersects
     a2/a3 lists, whose values change only with the scan tuple -> cache hits. *)
  let plan = Plan.wco q [| 1; 2; 0; 3 |] in
  let on = run ~cache:true g plan in
  let off = run ~cache:false g plan in
  check_int "same output" on.Counters.output off.Counters.output;
  check_bool "cache hits happen" true (on.Counters.cache_hits > 0);
  check_int "no hits when off" 0 off.Counters.cache_hits;
  check_bool "cache lowers icost" true (on.Counters.icost < off.Counters.icost)

let test_no_cache_benefit_ordering () =
  let g = small_graph () in
  let q = Patterns.diamond_x in
  (* Ordering a1 a2 a3 a4: last E/I touches a3 = the just-extended vertex,
     so consecutive tuples rarely share sources. Expect far fewer hits than
     the cache-friendly ordering. *)
  let friendly = run g (Plan.wco q [| 1; 2; 0; 3 |]) in
  let unfriendly = run g (Plan.wco q [| 0; 1; 2; 3 |]) in
  check_bool "friendly ordering caches more" true
    (friendly.Counters.cache_hits > unfriendly.Counters.cache_hits)

let test_icost_counts_list_sizes () =
  (* Hand-built graph: vertex 0 -> {1,2,3}, so extending the single edge
     (0,1) by descriptor on 0 costs |adj(0)| = 3. *)
  let g =
    Graph.build ~num_vlabels:1 ~num_elabels:1 ~vlabel:(Array.make 5 0)
      ~edges:[| (0, 1, 0); (0, 2, 0); (0, 3, 0); (4, 0, 0) |]
  in
  let q = Query.unlabeled_edges 3 [ (0, 1); (0, 2) ] in
  let plan = Plan.wco q [| 0; 1; 2 |] in
  let c = run ~cache:false g plan in
  (* Scan produces all 4 edges (u,v). The E/I accesses u's forward list:
     |fwd(0)| = 3 for the three (0,_) tuples, |fwd(4)| = 1 for (4,0):
     icost = 3*3 + 1 = 10; output = 3*3 + 1 = 10; intermediate = 4 scans. *)
  check_int "icost" 10 c.Counters.icost;
  check_int "output" 10 c.Counters.output;
  check_int "intermediate" 4 (Counters.intermediate c)

let test_limit () =
  let g = small_graph () in
  let q = Patterns.asymmetric_triangle in
  let plan = Plan.wco q [| 0; 1; 2 |] in
  let c, outcome = Exec.run_gov ~budget:(Governor.budget ~max_output:5 ()) g plan in
  check_int "limited" 5 c.Counters.output;
  check_bool "truncated" true (outcome = Governor.Truncated Governor.Output_limit)

let test_distinct () =
  let g = small_graph () in
  (* The 2-path a1->a2<-a3 can map a1 = a3 homomorphically. *)
  let q = Query.unlabeled_edges 3 [ (0, 1); (2, 1) ] in
  let plan = Plan.wco q [| 0; 1; 2 |] in
  let homo = Exec.count g plan in
  let iso = Exec.count ~distinct:true g plan in
  check_int "naive homo" (Naive.count g q) homo;
  check_int "naive iso" (Naive.count ~distinct:true g q) iso;
  check_bool "iso < homo" true (iso < homo)

let test_distinct_hash_join () =
  let g = small_graph () in
  let q = Patterns.cycle 4 in
  let p1 = Plan.wco q [| 0; 1; 2 |] in
  let p2 = Plan.wco q [| 2; 3; 0 |] in
  let plan = Plan.hash_join q p1 p2 in
  check_int "distinct join" (Naive.count ~distinct:true g q) (Exec.count ~distinct:true g plan)

let test_plan_validation () =
  let q = Patterns.diamond_x in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "extend bound target" true
    (bad (fun () -> Plan.extend q (Plan.wco q [| 0; 1; 2 |]) 2));
  let q6 = Patterns.cycle 6 in
  check_bool "non-adjacent extend" true
    (bad (fun () -> Plan.extend q6 (Plan.wco q6 [| 0; 1 |]) 3));
  check_bool "disjoint join" true
    (bad (fun () -> Plan.hash_join q6 (Plan.wco q6 [| 0; 1 |]) (Plan.wco q6 [| 3; 4 |])));
  check_bool "uncovered edge join" true
    (bad (fun () ->
         (* Join paths a1a2a3 and a3a4a5 of diamond-free 5-cycle... use Q3:
            triangles {0,1,2} and {1,3} edge: union misses edge 2->3. *)
         let t1 = Plan.wco q [| 0; 1; 2 |] in
         let e13 =
           Array.to_list q.Query.edges |> List.find (fun (e : Query.edge) -> e.src = 1 && e.dst = 3)
         in
         Plan.hash_join q t1 (Plan.scan q e13)));
  check_bool "wco disconnected prefix" true (bad (fun () -> Plan.wco q6 [| 0; 3 |]))

let test_plan_printing_and_signature () =
  let q = Patterns.diamond_x in
  let p1 = Plan.wco q [| 0; 1; 2; 3 |] in
  let p2 = Plan.wco q [| 1; 0; 2; 3 |] in
  (* Same scanned edge (a1,a2) and same intersections: equal signatures. *)
  Alcotest.(check string) "signature dedup" (Plan.signature p1) (Plan.signature p2);
  let p3 = Plan.wco q [| 1; 2; 0; 3 |] in
  check_bool "different plans differ" true (Plan.signature p1 <> Plan.signature p3);
  check_bool "printable" true (String.length (Plan.to_string p1) > 0)

let test_ei_chain_metrics () =
  let q = Patterns.diamond_x in
  let wco = Plan.wco q [| 0; 1; 2; 3 |] in
  check_int "wco ei ops" 2 (Plan.num_ei_operators wco);
  check_int "wco chain" 2 (Plan.max_ei_chain wco);
  let hybrid = Plan.hash_join q (Plan.wco q [| 1; 2; 0 |]) (Plan.wco q [| 1; 2; 3 |]) in
  check_int "hybrid ei ops" 2 (Plan.num_ei_operators hybrid);
  check_int "hybrid chain" 1 (Plan.max_ei_chain hybrid)

(* Property: on random small graphs, every connected order of every <=5-vertex
   benchmark query agrees with the naive matcher. *)
let prop_all_orders_correct =
  let gen = QCheck2.Gen.(pair (int_range 1 8) (int_bound 10_000)) in
  QCheck2.Test.make ~name:"wco plans match naive matcher" ~count:25 gen (fun (qi, seed) ->
      let qi = if qi > 6 then 11 else qi (* keep patterns small *) in
      let q = Patterns.q qi in
      let rng = Rng.create seed in
      let g = Generators.holme_kim rng ~n:60 ~m_per:3 ~p_triad:0.4 ~recip:0.3 in
      let expected = Naive.count g q in
      List.for_all
        (fun order -> Exec.count g (Plan.wco q order) = expected)
        (Query.connected_orders q))

let prop_labeled_plans_correct =
  let gen = QCheck2.Gen.(int_bound 10_000) in
  QCheck2.Test.make ~name:"labeled wco plans match naive" ~count:20 gen (fun seed ->
      let rng = Rng.create seed in
      let g0 = Generators.holme_kim rng ~n:80 ~m_per:3 ~p_triad:0.4 ~recip:0.3 in
      let g = Graph.relabel g0 rng ~num_vlabels:2 ~num_elabels:2 in
      let q0 = Patterns.q (1 + Rng.int rng 4) in
      let q = Patterns.randomize_edge_labels rng q0 ~num_elabels:2 in
      let expected = Naive.count g q in
      List.for_all
        (fun order -> Exec.count g (Plan.wco q order) = expected)
        (Query.connected_orders q))

(* The work counters a count-only root must leave unchanged: all but
   [gov_checks] (the counting root ticks less) and the parallel-only
   scheduling fields. *)
let work (c : Counters.t) =
  [ c.output; c.produced; c.icost; c.cache_hits; c.intersections; c.hj_build_tuples;
    c.hj_probe_tuples ]

(* A run without a sink counts at its E/I root (extension-set sizes, no
   enumeration) unless [distinct] forces enumeration. Under every flag
   combination its counters must equal those of a run enumerating into a
   sink, on the ablation query set. *)
let test_count_only_root_flags () =
  let g = small_graph () in
  List.iter
    (fun (name, q) ->
      let plan = Plan.wco q (Array.init (Query.num_vertices q) Fun.id) in
      let check_same what ?cache ?distinct () =
        let enumerated = fst (Exec.run_gov ?cache ?distinct ~sink:ignore g plan) in
        let counted = fst (Exec.run_gov ?cache ?distinct g plan) in
        Alcotest.(check (list int))
          (Printf.sprintf "%s: %s counters" name what)
          (work enumerated) (work counted)
      in
      check_same "plain" ();
      check_same "cache off" ~cache:false ();
      check_same "distinct" ~distinct:true ();
      check_same "distinct, cache off" ~cache:false ~distinct:true ();
      check_int (name ^ ": count") (Naive.count g q) (Exec.count g plan);
      check_int (name ^ ": count distinct") (Naive.count ~distinct:true g q)
        (Exec.count ~distinct:true g plan))
    [
      ("triangle", Patterns.asymmetric_triangle);
      ("diamond-x", Patterns.diamond_x);
      ("tailed triangle", Patterns.tailed_triangle);
      ("4-cycle", Patterns.cycle 4);
    ]

(* The SCAN -> E/I hot path allocates nothing per intersection: the bounds
   lookup writes into the operator's [Sorted.lists], and the k-way cascade
   narrows through its scratch vectors. What a run allocates at all —
   counters, closures, the governor — is a constant, so after a warm-up
   that grows every buffer, minor words per intersection stay far below
   one. Q5's closing E/I intersects three lists. Both kernels, counting and
   enumerating roots. *)
let test_alloc_free_intersections () =
  let g = Generators.holme_kim (Rng.create 91) ~n:2_000 ~m_per:8 ~p_triad:0.6 ~recip:0.3 in
  List.iter
    (fun qi ->
      let q = Patterns.q qi in
      let plan = Plan.wco q (Array.init (Query.num_vertices q) Fun.id) in
      List.iter
        (fun kernel ->
          Gf_util.Sorted.with_kernel_mode kernel (fun () ->
              List.iter
                (fun (root, sink) ->
                  ignore (Exec.run_gov ?sink g plan);
                  let w0 = Gc.minor_words () in
                  let c, _ = Exec.run_gov ?sink g plan in
                  let per = (Gc.minor_words () -. w0) /. float_of_int c.Counters.intersections in
                  check_bool
                    (Printf.sprintf "Q%d %s %s: %.4f minor words per intersection (%d)" qi
                       (Gf_util.Sorted.kernel_mode_to_string kernel) root per
                       c.Counters.intersections)
                    true
                    (c.Counters.intersections > 10_000 && per < 1.0))
                [ ("counting", None); ("enumerating", Some ignore) ]))
        [ Gf_util.Sorted.Scalar; Gf_util.Sorted.Simd ])
    [ 1; 5 ]

(* ---------- Join_table ---------- *)

(* Every row matching [tuple]'s key columns [pos], in visiting order. *)
let matches ?(pos = [| 0 |]) table ~row_len tuple =
  let out = ref [] in
  Join_table.iter_matches table tuple pos (fun off ->
      out := List.init row_len (Join_table.get table off) :: !out);
  List.rev !out

let table_of ?(key_pos = [| 0 |]) ~row_len rows =
  let t = Join_table.create ~key_pos ~row_len in
  List.iter (fun r -> Join_table.add t (Array.of_list r)) rows;
  t

let test_jt_duplicate_keys () =
  let t =
    table_of ~row_len:2 [ [ 1; 10 ]; [ 2; 20 ]; [ 1; 11 ]; [ 3; 30 ]; [ 1; 12 ]; [ 1; 10 ] ]
  in
  Join_table.index t;
  Alcotest.(check (list (list int)))
    "key 1: every row, in insertion order"
    [ [ 1; 10 ]; [ 1; 11 ]; [ 1; 12 ]; [ 1; 10 ] ]
    (matches t ~row_len:2 [| 1 |]);
  Alcotest.(check (list (list int))) "key 2" [ [ 2; 20 ] ] (matches t ~row_len:2 [| 2 |])

let test_jt_two_column_keys () =
  (* Keyed on columns 0 and 2; the probe tuple holds the key at 2 and 0. *)
  let t =
    table_of ~key_pos:[| 0; 2 |] ~row_len:3
      [ [ 1; 5; 2 ]; [ 2; 6; 1 ]; [ 1; 7; 2 ]; [ 1; 8; 3 ] ]
  in
  Join_table.index t;
  let m a b = matches ~pos:[| 2; 0 |] t ~row_len:3 [| b; 99; a |] in
  Alcotest.(check (list (list int))) "(1, 2)" [ [ 1; 5; 2 ]; [ 1; 7; 2 ] ] (m 1 2);
  Alcotest.(check (list (list int))) "(2, 1)" [ [ 2; 6; 1 ] ] (m 2 1);
  Alcotest.(check (list (list int))) "(1, 3)" [ [ 1; 8; 3 ] ] (m 1 3);
  Alcotest.(check (list (list int))) "(3, 1) absent" [] (m 3 1)

let test_jt_colliding_buckets () =
  (* At most one bucket per row: with every key distinct, 1000 keys share
     512 buckets, so buckets must hold rows of several keys. *)
  let n = 1000 in
  let t = table_of ~row_len:2 (List.init n (fun i -> [ i * 7; i ])) in
  Join_table.index t;
  for i = 0 to n - 1 do
    Alcotest.(check (list (list int)))
      (Printf.sprintf "key %d" (i * 7))
      [ [ i * 7; i ] ]
      (matches t ~row_len:2 [| i * 7 |])
  done;
  Alcotest.(check (list (list int))) "absent key" [] (matches t ~row_len:2 [| 3 |])

let test_jt_empty_and_missing () =
  let t = Join_table.create ~key_pos:[| 0 |] ~row_len:2 in
  Alcotest.check_raises "probing before index"
    (Invalid_argument "Join_table.iter_matches: table not indexed") (fun () ->
      ignore (matches t ~row_len:2 [| 1 |]));
  Join_table.index t;
  Alcotest.(check (list (list int))) "empty table" [] (matches t ~row_len:2 [| 1 |]);
  let t = table_of ~row_len:2 [ [ 4; 40 ] ] in
  Join_table.index t;
  Alcotest.(check (list (list int))) "missing key" [] (matches t ~row_len:2 [| 5 |]);
  Alcotest.(check (list (list int))) "present key" [ [ 4; 40 ] ] (matches t ~row_len:2 [| 4 |])

let test_jt_concatenated_partials () =
  let rng = Rng.create 5 in
  let rows = List.init 3000 (fun i -> [ Rng.int rng 50; Rng.int rng 50; i ]) in
  let key_pos = [| 1; 0 |] and row_len = 3 in
  let seq = table_of ~key_pos ~row_len rows in
  Join_table.index seq;
  (* Three partials of uneven size, concatenated in order, indexed once. *)
  let part lo hi = table_of ~key_pos ~row_len (List.filteri (fun i _ -> i >= lo && i < hi) rows) in
  let whole = part 0 700 in
  Join_table.append whole (part 700 2900);
  Join_table.append whole (part 2900 3000);
  Join_table.index whole;
  for a = 0 to 49 do
    for b = 0 to 49 do
      let k = [| a; b |] in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "key (%d, %d)" a b)
        (matches ~pos:[| 1; 0 |] seq ~row_len k)
        (matches ~pos:[| 1; 0 |] whole ~row_len k)
    done
  done

let test_jt_bytes_per_row () =
  List.iter
    (fun row_len ->
      check_int
        (Printf.sprintf "row_len %d" row_len)
        ((row_len + 2) * 8)
        (Join_table.bytes_per_row (Join_table.create ~key_pos:[| 0 |] ~row_len)))
    [ 2; 3; 6 ]

(* Once the row vector has grown, adding and probing allocate nothing on
   the minor heap: no boxed key, no row view. *)
let test_jt_alloc_free () =
  let n = 20_000 in
  let t = Join_table.create ~key_pos:[| 0; 1 |] ~row_len:3 in
  let row = [| 0; 0; 0 |] in
  for i = 0 to n - 1 do
    row.(0) <- i mod 100;
    row.(1) <- i mod 37;
    Join_table.add t row
  done;
  Join_table.index t;
  let hits = ref 0 in
  let on_row _ = incr hits in
  let pos = [| 0; 1 |] in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    row.(0) <- i mod 100;
    row.(1) <- i mod 37;
    Join_table.iter_matches t row pos on_row
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "%.0f minor words over %d probes" words n) true (words < 100.);
  check_bool "every probe matched" true (!hits >= n)

(* ---------- Golden counters ---------- *)

(* A small fixed graph with hubs (hub bitmap rows) and planted cliques, and
   its relabeled copy for labeled plans. *)
let golden_graph () =
  let rng = Rng.create 2025 in
  Generators.plant_cliques rng
    (Generators.holme_kim rng ~n:90 ~m_per:3 ~p_triad:0.6 ~recip:0.3)
    ~count:3 ~size:7

let labeled_golden_graph () =
  Graph.relabel (golden_graph ()) (Rng.create 2026) ~num_vlabels:2 ~num_elabels:2

(* [q] with vertex labels [v mod 2] and edge labels [i mod 2]. *)
let labeled_variant q =
  Query.create ~num_vertices:(Query.num_vertices q)
    ~vlabels:(Array.init (Query.num_vertices q) (fun v -> v mod 2))
    ~edges:(Array.mapi (fun i (e : Query.edge) -> { e with Query.label = i mod 2 }) q.Query.edges)
    ()

let golden_plans () =
  let rev q = Array.init (Query.num_vertices q) (fun i -> Query.num_vertices q - 1 - i) in
  let edge q a b =
    List.find
      (fun (e : Query.edge) -> (e.src = a && e.dst = b) || (e.src = b && e.dst = a))
      (Array.to_list q.Query.edges)
  in
  let wco =
    List.concat_map
      (fun qi ->
        let q = Patterns.q qi in
        let id = (Printf.sprintf "Q%d" qi, q, Plan.wco q (Array.init (Query.num_vertices q) Fun.id)) in
        match Plan.wco q (rev q) with
        | p -> [ id; (Printf.sprintf "Q%d rev" qi, q, p) ]
        | exception Invalid_argument _ -> [ id ])
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 13; 14 ]
  in
  let q2 = Patterns.q 2 and q3 = Patterns.q 3 and q8 = Patterns.q 8 in
  let q10 = Patterns.q 10 and q13 = Patterns.q 13 in
  let hybrid =
    [
      ("Q2 hj", q2, Plan.hash_join q2 (Plan.wco q2 [| 0; 1; 2 |]) (Plan.wco q2 [| 2; 3; 0 |]));
      ("Q3 hj", q3, Plan.hash_join q3 (Plan.wco q3 [| 1; 2; 0 |]) (Plan.wco q3 [| 1; 2; 3 |]));
      ( "Q3 extend after hj",
        q3,
        Plan.extend q3
          (Plan.hash_join q3 (Plan.scan q3 (edge q3 0 1)) (Plan.scan q3 (edge q3 1 3)))
          2 );
      ("Q8 hj", q8, Plan.hash_join q8 (Plan.wco q8 [| 0; 1; 2 |]) (Plan.wco q8 [| 2; 3; 4 |]));
      ( "Q10 hj",
        q10,
        Plan.hash_join q10 (Plan.wco q10 [| 0; 1; 2; 3 |]) (Plan.wco q10 [| 3; 4; 5 |]) );
      ( "Q13 hj",
        q13,
        Plan.hash_join q13 (Plan.wco q13 [| 0; 1; 2 |]) (Plan.wco q13 [| 2; 3; 4; 5 |]) );
    ]
  in
  wco @ hybrid

let labeled_golden_plans () =
  List.map
    (fun qi ->
      let q = labeled_variant (Patterns.q qi) in
      (Printf.sprintf "L%d" qi, q, Plan.wco q (Array.init (Query.num_vertices q) Fun.id)))
    [ 1; 3; 5; 8 ]

(* Every counter a run reports except the governor's, under the cache on
   and off, homomorphic and [distinct], counted at the root and
   enumerated. *)
let golden_lines g plans =
  List.concat_map
    (fun (name, _, plan) ->
      List.concat_map
        (fun (cache, distinct) ->
          List.map
            (fun (mode, sink) ->
              let c, o = Exec.run_gov ~cache ~distinct ?sink g plan in
              assert (o = Governor.Completed);
              Printf.sprintf "%s c%b d%b %s: o%d p%d i%d x%d h%d b%d r%d" name cache distinct mode
                c.Counters.output c.produced c.icost c.intersections c.cache_hits c.hj_build_tuples
                c.hj_probe_tuples)
            [ ("count", None); ("enum", Some ignore) ])
        [ (true, false); (false, false); (true, true); (false, true) ])
    plans

(* The parent run's counters, one line per plan, setting and root mode:
   output, produced, icost, intersections, cache hits, HASH-JOIN build and
   probe tuples. *)
let golden_expected =
  [
    "Q1 ctrue dfalse count: o454 p800 i6022 x346 h0 b0 r0";
    "Q1 ctrue dfalse enum: o454 p800 i6022 x346 h0 b0 r0";
    "Q1 cfalse dfalse count: o454 p800 i6022 x346 h0 b0 r0";
    "Q1 cfalse dfalse enum: o454 p800 i6022 x346 h0 b0 r0";
    "Q1 ctrue dtrue count: o454 p800 i6022 x346 h0 b0 r0";
    "Q1 ctrue dtrue enum: o454 p800 i6022 x346 h0 b0 r0";
    "Q1 cfalse dtrue count: o454 p800 i6022 x346 h0 b0 r0";
    "Q1 cfalse dtrue enum: o454 p800 i6022 x346 h0 b0 r0";
    "Q1 rev ctrue dfalse count: o454 p800 i11962 x346 h0 b0 r0";
    "Q1 rev ctrue dfalse enum: o454 p800 i11962 x346 h0 b0 r0";
    "Q1 rev cfalse dfalse count: o454 p800 i11962 x346 h0 b0 r0";
    "Q1 rev cfalse dfalse enum: o454 p800 i11962 x346 h0 b0 r0";
    "Q1 rev ctrue dtrue count: o454 p800 i11962 x346 h0 b0 r0";
    "Q1 rev ctrue dtrue enum: o454 p800 i11962 x346 h0 b0 r0";
    "Q1 rev cfalse dtrue count: o454 p800 i11962 x346 h0 b0 r0";
    "Q1 rev cfalse dtrue enum: o454 p800 i11962 x346 h0 b0 r0";
    "Q2 ctrue dfalse count: o3468 p7460 i43456 x3984 h8 b0 r0";
    "Q2 ctrue dfalse enum: o3468 p7460 i43456 x3984 h8 b0 r0";
    "Q2 cfalse dfalse count: o3468 p7460 i43816 x3992 h0 b0 r0";
    "Q2 cfalse dfalse enum: o3468 p7460 i43816 x3992 h0 b0 r0";
    "Q2 ctrue dtrue count: o1104 p4940 i38689 x3825 h11 b0 r0";
    "Q2 ctrue dtrue enum: o1104 p4940 i38689 x3825 h11 b0 r0";
    "Q2 cfalse dtrue count: o1104 p4940 i39193 x3836 h0 b0 r0";
    "Q2 cfalse dtrue enum: o1104 p4940 i39193 x3836 h0 b0 r0";
    "Q2 rev ctrue dfalse count: o3468 p7460 i40410 x3735 h257 b0 r0";
    "Q2 rev ctrue dfalse enum: o3468 p7460 i40410 x3735 h257 b0 r0";
    "Q2 rev cfalse dfalse count: o3468 p7460 i43816 x3992 h0 b0 r0";
    "Q2 rev cfalse dfalse enum: o3468 p7460 i43816 x3992 h0 b0 r0";
    "Q2 rev ctrue dtrue count: o1104 p4940 i35831 x3579 h257 b0 r0";
    "Q2 rev ctrue dtrue enum: o1104 p4940 i35831 x3579 h257 b0 r0";
    "Q2 rev cfalse dtrue count: o1104 p4940 i39193 x3836 h0 b0 r0";
    "Q2 rev cfalse dtrue enum: o1104 p4940 i39193 x3836 h0 b0 r0";
    "Q3 ctrue dfalse count: o623 p1423 i16726 x798 h2 b0 r0";
    "Q3 ctrue dfalse enum: o623 p1423 i16726 x798 h2 b0 r0";
    "Q3 cfalse dfalse count: o623 p1423 i16812 x800 h0 b0 r0";
    "Q3 cfalse dfalse enum: o623 p1423 i16812 x800 h0 b0 r0";
    "Q3 ctrue dtrue count: o564 p1364 i16726 x798 h2 b0 r0";
    "Q3 ctrue dtrue enum: o564 p1364 i16726 x798 h2 b0 r0";
    "Q3 cfalse dtrue count: o564 p1364 i16812 x800 h0 b0 r0";
    "Q3 cfalse dtrue enum: o564 p1364 i16812 x800 h0 b0 r0";
    "Q3 rev ctrue dfalse count: o623 p1423 i23114 x766 h34 b0 r0";
    "Q3 rev ctrue dfalse enum: o623 p1423 i23114 x766 h34 b0 r0";
    "Q3 rev cfalse dfalse count: o623 p1423 i23769 x800 h0 b0 r0";
    "Q3 rev cfalse dfalse enum: o623 p1423 i23769 x800 h0 b0 r0";
    "Q3 rev ctrue dtrue count: o564 p1364 i23114 x766 h34 b0 r0";
    "Q3 rev ctrue dtrue enum: o564 p1364 i23114 x766 h34 b0 r0";
    "Q3 rev cfalse dtrue count: o564 p1364 i23769 x800 h0 b0 r0";
    "Q3 rev cfalse dtrue enum: o564 p1364 i23769 x800 h0 b0 r0";
    "Q4 ctrue dfalse count: o529 p1106 i15776 x576 h1 b0 r0";
    "Q4 ctrue dfalse enum: o529 p1106 i15776 x576 h1 b0 r0";
    "Q4 cfalse dfalse count: o529 p1106 i15838 x577 h0 b0 r0";
    "Q4 cfalse dfalse enum: o529 p1106 i15838 x577 h0 b0 r0";
    "Q4 ctrue dtrue count: o298 p875 i15776 x576 h1 b0 r0";
    "Q4 ctrue dtrue enum: o298 p875 i15776 x576 h1 b0 r0";
    "Q4 cfalse dtrue count: o298 p875 i15838 x577 h0 b0 r0";
    "Q4 cfalse dtrue enum: o298 p875 i15838 x577 h0 b0 r0";
    "Q4 rev ctrue dfalse count: o529 p1106 i13328 x541 h36 b0 r0";
    "Q4 rev ctrue dfalse enum: o529 p1106 i13328 x541 h36 b0 r0";
    "Q4 rev cfalse dfalse count: o529 p1106 i15838 x577 h0 b0 r0";
    "Q4 rev cfalse dfalse enum: o529 p1106 i15838 x577 h0 b0 r0";
    "Q4 rev ctrue dtrue count: o298 p875 i13328 x541 h36 b0 r0";
    "Q4 rev ctrue dtrue enum: o298 p875 i13328 x541 h36 b0 r0";
    "Q4 rev cfalse dtrue count: o298 p875 i15838 x577 h0 b0 r0";
    "Q4 rev cfalse dtrue enum: o298 p875 i15838 x577 h0 b0 r0";
    "Q5 ctrue dfalse count: o364 p1164 i19994 x800 h0 b0 r0";
    "Q5 ctrue dfalse enum: o364 p1164 i19994 x800 h0 b0 r0";
    "Q5 cfalse dfalse count: o364 p1164 i19994 x800 h0 b0 r0";
    "Q5 cfalse dfalse enum: o364 p1164 i19994 x800 h0 b0 r0";
    "Q5 ctrue dtrue count: o364 p1164 i19994 x800 h0 b0 r0";
    "Q5 ctrue dtrue enum: o364 p1164 i19994 x800 h0 b0 r0";
    "Q5 cfalse dtrue count: o364 p1164 i19994 x800 h0 b0 r0";
    "Q5 cfalse dtrue enum: o364 p1164 i19994 x800 h0 b0 r0";
    "Q5 rev ctrue dfalse count: o364 p1164 i40349 x800 h0 b0 r0";
    "Q5 rev ctrue dfalse enum: o364 p1164 i40349 x800 h0 b0 r0";
    "Q5 rev cfalse dfalse count: o364 p1164 i40349 x800 h0 b0 r0";
    "Q5 rev cfalse dfalse enum: o364 p1164 i40349 x800 h0 b0 r0";
    "Q5 rev ctrue dtrue count: o364 p1164 i40349 x800 h0 b0 r0";
    "Q5 rev ctrue dtrue enum: o364 p1164 i40349 x800 h0 b0 r0";
    "Q5 rev cfalse dtrue count: o364 p1164 i40349 x800 h0 b0 r0";
    "Q5 rev cfalse dtrue enum: o364 p1164 i40349 x800 h0 b0 r0";
    "Q6 ctrue dfalse count: o67 p867 i20264 x800 h0 b0 r0";
    "Q6 ctrue dfalse enum: o67 p867 i20264 x800 h0 b0 r0";
    "Q6 cfalse dfalse count: o67 p867 i20264 x800 h0 b0 r0";
    "Q6 cfalse dfalse enum: o67 p867 i20264 x800 h0 b0 r0";
    "Q6 ctrue dtrue count: o67 p867 i20264 x800 h0 b0 r0";
    "Q6 ctrue dtrue enum: o67 p867 i20264 x800 h0 b0 r0";
    "Q6 cfalse dtrue count: o67 p867 i20264 x800 h0 b0 r0";
    "Q6 cfalse dtrue enum: o67 p867 i20264 x800 h0 b0 r0";
    "Q6 rev ctrue dfalse count: o67 p867 i30314 x800 h0 b0 r0";
    "Q6 rev ctrue dfalse enum: o67 p867 i30314 x800 h0 b0 r0";
    "Q6 rev cfalse dfalse count: o67 p867 i30314 x800 h0 b0 r0";
    "Q6 rev cfalse dfalse enum: o67 p867 i30314 x800 h0 b0 r0";
    "Q6 rev ctrue dtrue count: o67 p867 i30314 x800 h0 b0 r0";
    "Q6 rev ctrue dtrue enum: o67 p867 i30314 x800 h0 b0 r0";
    "Q6 rev cfalse dtrue count: o67 p867 i30314 x800 h0 b0 r0";
    "Q6 rev cfalse dtrue enum: o67 p867 i30314 x800 h0 b0 r0";
    "Q7 ctrue dfalse count: o270 p1434 i33749 x1164 h0 b0 r0";
    "Q7 ctrue dfalse enum: o270 p1434 i33749 x1164 h0 b0 r0";
    "Q7 cfalse dfalse count: o270 p1434 i33749 x1164 h0 b0 r0";
    "Q7 cfalse dfalse enum: o270 p1434 i33749 x1164 h0 b0 r0";
    "Q7 ctrue dtrue count: o270 p1434 i33749 x1164 h0 b0 r0";
    "Q7 ctrue dtrue enum: o270 p1434 i33749 x1164 h0 b0 r0";
    "Q7 cfalse dtrue count: o270 p1434 i33749 x1164 h0 b0 r0";
    "Q7 cfalse dtrue enum: o270 p1434 i33749 x1164 h0 b0 r0";
    "Q7 rev ctrue dfalse count: o270 p1434 i65920 x1164 h0 b0 r0";
    "Q7 rev ctrue dfalse enum: o270 p1434 i65920 x1164 h0 b0 r0";
    "Q7 rev cfalse dfalse count: o270 p1434 i65920 x1164 h0 b0 r0";
    "Q7 rev cfalse dfalse enum: o270 p1434 i65920 x1164 h0 b0 r0";
    "Q7 rev ctrue dtrue count: o270 p1434 i65920 x1164 h0 b0 r0";
    "Q7 rev ctrue dtrue enum: o270 p1434 i65920 x1164 h0 b0 r0";
    "Q7 rev cfalse dtrue count: o270 p1434 i65920 x1164 h0 b0 r0";
    "Q7 rev cfalse dtrue enum: o270 p1434 i65920 x1164 h0 b0 r0";
    "Q8 ctrue dfalse count: o5295 p12640 i201659 x7268 h77 b0 r0";
    "Q8 ctrue dfalse enum: o5295 p12640 i201659 x7268 h77 b0 r0";
    "Q8 cfalse dfalse count: o5295 p12640 i203784 x7345 h0 b0 r0";
    "Q8 cfalse dfalse enum: o5295 p12640 i203784 x7345 h0 b0 r0";
    "Q8 ctrue dtrue count: o4510 p11539 i193053 x6950 h79 b0 r0";
    "Q8 ctrue dtrue enum: o4510 p11539 i193053 x6950 h79 b0 r0";
    "Q8 cfalse dtrue count: o4510 p11539 i195188 x7029 h0 b0 r0";
    "Q8 cfalse dtrue enum: o4510 p11539 i195188 x7029 h0 b0 r0";
    "Q8 rev ctrue dfalse count: o5295 p9547 i182912 x4210 h42 b0 r0";
    "Q8 rev ctrue dfalse enum: o5295 p9547 i182912 x4210 h42 b0 r0";
    "Q8 rev cfalse dfalse count: o5295 p9547 i183505 x4252 h0 b0 r0";
    "Q8 rev cfalse dfalse enum: o5295 p9547 i183505 x4252 h0 b0 r0";
    "Q8 rev ctrue dtrue count: o4510 p8464 i170272 x3912 h42 b0 r0";
    "Q8 rev ctrue dtrue enum: o4510 p8464 i170272 x3912 h42 b0 r0";
    "Q8 rev cfalse dtrue count: o4510 p8464 i170866 x3954 h0 b0 r0";
    "Q8 rev cfalse dtrue enum: o4510 p8464 i170866 x3954 h0 b0 r0";
    "Q9 ctrue dfalse count: o9482 p22122 i260578 x11842 h798 b0 r0";
    "Q9 ctrue dfalse enum: o9482 p22122 i260578 x11842 h798 b0 r0";
    "Q9 cfalse dfalse count: o9482 p22122 i277912 x12640 h0 b0 r0";
    "Q9 cfalse dfalse enum: o9482 p22122 i277912 x12640 h0 b0 r0";
    "Q9 ctrue dtrue count: o1804 p13343 i238574 x10862 h677 b0 r0";
    "Q9 ctrue dtrue enum: o1804 p13343 i238574 x10862 h677 b0 r0";
    "Q9 cfalse dtrue count: o1804 p13343 i252247 x11539 h0 b0 r0";
    "Q9 cfalse dtrue enum: o1804 p13343 i252247 x11539 h0 b0 r0";
    "Q9 rev ctrue dfalse count: o9482 p57400 i1843107 x47474 h444 b0 r0";
    "Q9 rev ctrue dfalse enum: o9482 p57400 i1843107 x47474 h444 b0 r0";
    "Q9 rev cfalse dfalse count: o9482 p57400 i1849282 x47918 h0 b0 r0";
    "Q9 rev cfalse dfalse enum: o9482 p57400 i1849282 x47918 h0 b0 r0";
    "Q9 rev ctrue dtrue count: o1804 p41338 i1277460 x39108 h426 b0 r0";
    "Q9 rev ctrue dtrue enum: o1804 p41338 i1277460 x39108 h426 b0 r0";
    "Q9 rev cfalse dtrue count: o1804 p41338 i1283375 x39534 h0 b0 r0";
    "Q9 rev cfalse dtrue enum: o1804 p41338 i1283375 x39534 h0 b0 r0";
    "Q10 ctrue dfalse count: o5961 p13869 i201007 x7867 h41 b0 r0";
    "Q10 ctrue dfalse enum: o5961 p13869 i201007 x7867 h41 b0 r0";
    "Q10 cfalse dfalse count: o5961 p13869 i201779 x7908 h0 b0 r0";
    "Q10 cfalse dfalse enum: o5961 p13869 i201779 x7908 h0 b0 r0";
    "Q10 ctrue dtrue count: o3498 p9929 i160157 x6389 h42 b0 r0";
    "Q10 ctrue dtrue enum: o3498 p9929 i160157 x6389 h42 b0 r0";
    "Q10 cfalse dtrue count: o3498 p9929 i160740 x6431 h0 b0 r0";
    "Q10 cfalse dtrue enum: o3498 p9929 i160740 x6431 h0 b0 r0";
    "Q10 rev ctrue dfalse count: o5961 p15508 i290778 x9502 h45 b0 r0";
    "Q10 rev ctrue dfalse enum: o5961 p15508 i290778 x9502 h45 b0 r0";
    "Q10 rev cfalse dfalse count: o5961 p15508 i291398 x9547 h0 b0 r0";
    "Q10 rev cfalse dfalse enum: o5961 p15508 i291398 x9547 h0 b0 r0";
    "Q10 rev ctrue dtrue count: o3498 p11962 i245327 x8407 h57 b0 r0";
    "Q10 rev ctrue dtrue enum: o3498 p11962 i245327 x8407 h57 b0 r0";
    "Q10 rev cfalse dtrue count: o3498 p11962 i245999 x8464 h0 b0 r0";
    "Q10 rev cfalse dtrue enum: o3498 p11962 i245999 x8464 h0 b0 r0";
    "Q13 ctrue dfalse count: o2029808 p2170869 i253988 x37113 h103948 b0 r0";
    "Q13 ctrue dfalse enum: o2029808 p2170869 i253988 x37113 h103948 b0 r0";
    "Q13 cfalse dfalse count: o2029808 p2170869 i2170523 x141061 h0 b0 r0";
    "Q13 cfalse dfalse enum: o2029808 p2170869 i2170523 x141061 h0 b0 r0";
    "Q13 ctrue dtrue count: o684358 p752306 i142205 x25001 h42947 b0 r0";
    "Q13 ctrue dtrue enum: o684358 p752306 i142205 x25001 h42947 b0 r0";
    "Q13 cfalse dtrue count: o684358 p752306 i874749 x67948 h0 b0 r0";
    "Q13 cfalse dtrue enum: o684358 p752306 i874749 x67948 h0 b0 r0";
    "Q14 ctrue dfalse count: o49 p1634 i53279 x1585 h0 b0 r0";
    "Q14 ctrue dfalse enum: o49 p1634 i53279 x1585 h0 b0 r0";
    "Q14 cfalse dfalse count: o49 p1634 i53279 x1585 h0 b0 r0";
    "Q14 cfalse dfalse enum: o49 p1634 i53279 x1585 h0 b0 r0";
    "Q14 ctrue dtrue count: o49 p1634 i53279 x1585 h0 b0 r0";
    "Q14 ctrue dtrue enum: o49 p1634 i53279 x1585 h0 b0 r0";
    "Q14 cfalse dtrue count: o49 p1634 i53279 x1585 h0 b0 r0";
    "Q14 cfalse dtrue enum: o49 p1634 i53279 x1585 h0 b0 r0";
    "Q14 rev ctrue dfalse count: o49 p1634 i100336 x1585 h0 b0 r0";
    "Q14 rev ctrue dfalse enum: o49 p1634 i100336 x1585 h0 b0 r0";
    "Q14 rev cfalse dfalse count: o49 p1634 i100336 x1585 h0 b0 r0";
    "Q14 rev cfalse dfalse enum: o49 p1634 i100336 x1585 h0 b0 r0";
    "Q14 rev ctrue dtrue count: o49 p1634 i100336 x1585 h0 b0 r0";
    "Q14 rev ctrue dtrue enum: o49 p1634 i100336 x1585 h0 b0 r0";
    "Q14 rev cfalse dtrue count: o49 p1634 i100336 x1585 h0 b0 r0";
    "Q14 rev cfalse dtrue enum: o49 p1634 i100336 x1585 h0 b0 r0";
    "Q2 hj ctrue dfalse count: o3468 p11452 i7118 x686 h6 b3646 r3646";
    "Q2 hj ctrue dfalse enum: o3468 p11452 i7118 x686 h6 b3646 r3646";
    "Q2 hj cfalse dfalse count: o3468 p11452 i7292 x692 h0 b3646 r3646";
    "Q2 hj cfalse dfalse enum: o3468 p11452 i7292 x692 h0 b3646 r3646";
    "Q2 hj ctrue dtrue count: o1104 p8776 i7118 x686 h6 b3490 r3490";
    "Q2 hj ctrue dtrue enum: o1104 p8776 i7118 x686 h6 b3490 r3490";
    "Q2 hj cfalse dtrue count: o1104 p8776 i7292 x692 h0 b3490 r3490";
    "Q2 hj cfalse dtrue enum: o1104 p8776 i7292 x692 h0 b3490 r3490";
    "Q3 hj ctrue dfalse count: o623 p2223 i17984 x692 h0 b454 r454";
    "Q3 hj ctrue dfalse enum: o623 p2223 i17984 x692 h0 b454 r454";
    "Q3 hj cfalse dfalse count: o623 p2223 i17984 x692 h0 b454 r454";
    "Q3 hj cfalse dfalse enum: o623 p2223 i17984 x692 h0 b454 r454";
    "Q3 hj ctrue dtrue count: o564 p2164 i17984 x692 h0 b454 r454";
    "Q3 hj ctrue dtrue enum: o564 p2164 i17984 x692 h0 b454 r454";
    "Q3 hj cfalse dtrue count: o564 p2164 i17984 x692 h0 b454 r454";
    "Q3 hj cfalse dtrue enum: o564 p2164 i17984 x692 h0 b454 r454";
    "Q3 extend after hj ctrue dfalse count: o623 p4961 i128118 x3646 h0 b346 r346";
    "Q3 extend after hj ctrue dfalse enum: o623 p4961 i128118 x3646 h0 b346 r346";
    "Q3 extend after hj cfalse dfalse count: o623 p4961 i128118 x3646 h0 b346 r346";
    "Q3 extend after hj cfalse dfalse enum: o623 p4961 i128118 x3646 h0 b346 r346";
    "Q3 extend after hj ctrue dtrue count: o564 p4746 i121996 x3490 h0 b346 r346";
    "Q3 extend after hj ctrue dtrue enum: o564 p4746 i121996 x3490 h0 b346 r346";
    "Q3 extend after hj cfalse dtrue count: o564 p4746 i121996 x3490 h0 b346 r346";
    "Q3 extend after hj cfalse dtrue enum: o564 p4746 i121996 x3490 h0 b346 r346";
    "Q8 hj ctrue dfalse count: o5295 p6895 i12044 x692 h0 b454 r454";
    "Q8 hj ctrue dfalse enum: o5295 p6895 i12044 x692 h0 b454 r454";
    "Q8 hj cfalse dfalse count: o5295 p6895 i12044 x692 h0 b454 r454";
    "Q8 hj cfalse dfalse enum: o5295 p6895 i12044 x692 h0 b454 r454";
    "Q8 hj ctrue dtrue count: o4510 p6110 i12044 x692 h0 b454 r454";
    "Q8 hj ctrue dtrue enum: o4510 p6110 i12044 x692 h0 b454 r454";
    "Q8 hj cfalse dtrue count: o4510 p6110 i12044 x692 h0 b454 r454";
    "Q8 hj cfalse dtrue enum: o4510 p6110 i12044 x692 h0 b454 r454";
    "Q10 hj ctrue dfalse count: o5961 p8184 i22748 x1144 h2 b623 r454";
    "Q10 hj ctrue dfalse enum: o5961 p8184 i22748 x1144 h2 b623 r454";
    "Q10 hj cfalse dfalse count: o5961 p8184 i22834 x1146 h0 b623 r454";
    "Q10 hj cfalse dfalse enum: o5961 p8184 i22834 x1146 h0 b623 r454";
    "Q10 hj ctrue dtrue count: o3498 p5662 i22748 x1144 h2 b564 r454";
    "Q10 hj ctrue dtrue enum: o3498 p5662 i22748 x1144 h2 b564 r454";
    "Q10 hj cfalse dtrue count: o3498 p5662 i22834 x1146 h0 b564 r454";
    "Q10 hj cfalse dtrue enum: o3498 p5662 i22834 x1146 h0 b564 r454";
    "Q13 hj ctrue dfalse count: o2029808 p2112504 i7464 x776 h3562 b2376 r75982";
    "Q13 hj ctrue dfalse enum: o2029808 p2112504 i7464 x776 h3562 b2376 r75982";
    "Q13 hj cfalse dfalse count: o2029808 p2112504 i82004 x4338 h0 b2376 r75982";
    "Q13 hj cfalse dfalse enum: o2029808 p2112504 i82004 x4338 h0 b2376 r75982";
    "Q13 hj ctrue dtrue count: o684358 p760220 i7461 x773 h3409 b2030 r69650";
    "Q13 hj ctrue dtrue enum: o684358 p760220 i7461 x773 h3409 b2030 r69650";
    "Q13 hj cfalse dtrue count: o684358 p760220 i80505 x4182 h0 b2030 r69650";
    "Q13 hj cfalse dtrue enum: o684358 p760220 i80505 x4182 h0 b2030 r69650";
    "L1 ctrue dfalse count: o10 p53 i148 x43 h0 b0 r0";
    "L1 ctrue dfalse enum: o10 p53 i148 x43 h0 b0 r0";
    "L1 cfalse dfalse count: o10 p53 i148 x43 h0 b0 r0";
    "L1 cfalse dfalse enum: o10 p53 i148 x43 h0 b0 r0";
    "L1 ctrue dtrue count: o10 p53 i148 x43 h0 b0 r0";
    "L1 ctrue dtrue enum: o10 p53 i148 x43 h0 b0 r0";
    "L1 cfalse dtrue count: o10 p53 i148 x43 h0 b0 r0";
    "L1 cfalse dtrue enum: o10 p53 i148 x43 h0 b0 r0";
    "L3 ctrue dfalse count: o1 p58 i279 x57 h0 b0 r0";
    "L3 ctrue dfalse enum: o1 p58 i279 x57 h0 b0 r0";
    "L3 cfalse dfalse count: o1 p58 i279 x57 h0 b0 r0";
    "L3 cfalse dfalse enum: o1 p58 i279 x57 h0 b0 r0";
    "L3 ctrue dtrue count: o1 p58 i279 x57 h0 b0 r0";
    "L3 ctrue dtrue enum: o1 p58 i279 x57 h0 b0 r0";
    "L3 cfalse dtrue count: o1 p58 i279 x57 h0 b0 r0";
    "L3 cfalse dtrue enum: o1 p58 i279 x57 h0 b0 r0";
    "L5 ctrue dfalse count: o0 p40 i197 x40 h0 b0 r0";
    "L5 ctrue dfalse enum: o0 p40 i197 x40 h0 b0 r0";
    "L5 cfalse dfalse count: o0 p40 i197 x40 h0 b0 r0";
    "L5 cfalse dfalse enum: o0 p40 i197 x40 h0 b0 r0";
    "L5 ctrue dtrue count: o0 p40 i197 x40 h0 b0 r0";
    "L5 ctrue dtrue enum: o0 p40 i197 x40 h0 b0 r0";
    "L5 cfalse dtrue count: o0 p40 i197 x40 h0 b0 r0";
    "L5 cfalse dtrue enum: o0 p40 i197 x40 h0 b0 r0";
    "L8 ctrue dfalse count: o2 p96 i455 x92 h2 b0 r0";
    "L8 ctrue dfalse enum: o2 p96 i455 x92 h2 b0 r0";
    "L8 cfalse dfalse count: o2 p96 i471 x94 h0 b0 r0";
    "L8 cfalse dfalse enum: o2 p96 i471 x94 h0 b0 r0";
    "L8 ctrue dtrue count: o0 p90 i429 x88 h2 b0 r0";
    "L8 ctrue dtrue enum: o0 p90 i429 x88 h2 b0 r0";
    "L8 cfalse dtrue count: o0 p90 i445 x90 h0 b0 r0";
    "L8 cfalse dtrue enum: o0 p90 i445 x90 h0 b0 r0";
  ]

let test_golden_counters () =
  List.iter
    (fun kernel ->
      Gf_util.Sorted.with_kernel_mode kernel (fun () ->
          let got =
            golden_lines (golden_graph ()) (golden_plans ())
            @ golden_lines (labeled_golden_graph ()) (labeled_golden_plans ())
          in
          Alcotest.(check (list string)) (Gf_util.Sorted.kernel_mode_to_string kernel) golden_expected got))
    [ Gf_util.Sorted.Scalar; Gf_util.Sorted.Simd ]

let suite =
  let q t = QCheck_alcotest.to_alcotest t in
  [
    ( "exec.correctness",
      [
        Alcotest.test_case "triangle all orders" `Quick test_triangle_all_orders;
        Alcotest.test_case "triangle tuples" `Quick test_triangle_tuples_match_naive;
        Alcotest.test_case "diamond-x all orders" `Quick test_diamond_x_all_orders;
        Alcotest.test_case "labeled query" `Quick test_labeled_query;
        Alcotest.test_case "hash join diamond-x" `Quick test_hash_join_diamond_x;
        Alcotest.test_case "bj 4-cycle" `Quick test_bj_plan_four_cycle;
        Alcotest.test_case "extend after join" `Quick test_extend_after_join;
        q prop_all_orders_correct;
        q prop_labeled_plans_correct;
      ] );
    ( "exec.features",
      [
        Alcotest.test_case "cache semantics" `Quick test_cache_semantics;
        Alcotest.test_case "cache-friendly ordering" `Quick test_no_cache_benefit_ordering;
        Alcotest.test_case "icost counting" `Quick test_icost_counts_list_sizes;
        Alcotest.test_case "limit" `Quick test_limit;
        Alcotest.test_case "distinct" `Quick test_distinct;
        Alcotest.test_case "distinct hash join" `Quick test_distinct_hash_join;
        Alcotest.test_case "count-only root flags" `Quick test_count_only_root_flags;
        Alcotest.test_case "allocation-free intersections" `Quick
          test_alloc_free_intersections;
      ] );
    ( "exec.join_table",
      [
        Alcotest.test_case "duplicate keys keep order" `Quick test_jt_duplicate_keys;
        Alcotest.test_case "two-column keys" `Quick test_jt_two_column_keys;
        Alcotest.test_case "colliding buckets" `Quick test_jt_colliding_buckets;
        Alcotest.test_case "empty table, missing key" `Quick test_jt_empty_and_missing;
        Alcotest.test_case "concatenated partials = one build" `Quick
          test_jt_concatenated_partials;
        Alcotest.test_case "bytes_per_row formula" `Quick test_jt_bytes_per_row;
        Alcotest.test_case "probe allocates nothing" `Quick test_jt_alloc_free;
      ] );
    ( "plan.structure",
      [
        Alcotest.test_case "validation" `Quick test_plan_validation;
        Alcotest.test_case "printing/signature" `Quick test_plan_printing_and_signature;
        Alcotest.test_case "ei chains" `Quick test_ei_chain_metrics;
      ] );
    ("exec.golden", [ Alcotest.test_case "counters" `Quick test_golden_counters ]);
  ]
