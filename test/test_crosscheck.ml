(* Cross-subsystem agreement on random inputs: for random small queries on
   random graphs, every execution path in the repository must produce the
   same matches as the naive reference matcher — the same match set for
   every path that delivers rows, the same count for the counting ones.
   This is the test that catches planner/executor disagreements no unit
   test anticipates. *)

open Gf_query
module Catalog = Gf_catalog.Catalog
module Planner = Gf_opt.Planner
module Plan = Gf_plan.Plan
module Exec = Gf_exec.Exec
module Parallel = Gf_exec.Parallel
module Naive = Gf_exec.Naive
module Counters = Gf_exec.Counters
module Governor = Gf_exec.Governor
module Adaptive = Gf_adaptive.Adaptive
module Ghd = Gf_ghd.Ghd
module Bj = Gf_baseline.Bj
module Cfl = Gf_baseline.Cfl
module Query_gen = Gf_baseline.Query_gen
module Spectrum = Gf_spectrum.Spectrum
module Graph = Gf_graph.Graph
module Generators = Gf_graph.Generators
module Rng = Gf_util.Rng
module Plan_cache = Gf_opt.Plan_cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let random_graph rng =
  let n = 40 + Rng.int rng 80 in
  let g =
    Generators.holme_kim rng ~n ~m_per:(2 + Rng.int rng 3)
      ~p_triad:(Rng.float rng 0.6) ~recip:(Rng.float rng 0.5)
  in
  if Rng.bool rng then Graph.relabel g rng ~num_vlabels:(1 + Rng.int rng 2) ~num_elabels:(1 + Rng.int rng 2)
  else g

(* A random connected query without anti-parallel pairs, labels within the
   graph's alphabets. *)
let random_query rng g =
  let nv = 3 + Rng.int rng 3 in
  let q0 = Patterns.random_query rng ~num_vertices:nv ~dense:(Rng.bool rng) ~num_vlabels:(Graph.num_vlabels g) in
  Patterns.randomize_edge_labels rng q0 ~num_elabels:(Graph.num_elabels g)

(* Reorder a tuple in plan-schema column order into query-vertex order. *)
let to_assignment schema tuple =
  let out = Array.make (Array.length schema) (-1) in
  Array.iteri (fun i v -> out.(v) <- tuple.(i)) schema;
  out

(* A match set's fingerprint: the row count and an order-independent hash
   of the rows (each in query-vertex order), computed over the sorted rows
   so delivery order and domain interleaving do not matter. *)
let fingerprint rows =
  let hash = List.fold_left (Array.fold_left (fun h v -> (h * 1_000_003) lxor v)) 17 in
  (List.length rows, hash (List.sort compare rows))

(* The fingerprint of what [run sink] delivers to [sink], rows arriving in
   [schema] column order. *)
let delivered schema run =
  let rows = ref [] in
  run (fun t -> rows := to_assignment schema t :: !rows);
  fingerprint !rows

(* The work counters a count-only root must reproduce exactly: all but
   [gov_checks] and the parallel scheduling fields. *)
let work (c : Counters.t) =
  [ c.output; c.produced; c.icost; c.cache_hits; c.intersections; c.hj_build_tuples;
    c.hj_probe_tuples ]

let prop_all_engines_agree =
  QCheck2.Test.make ~name:"planner/adaptive/ghd/bj/parallel = naive" ~count:30
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng in
      let q = random_query rng g in
      let expected = Naive.count g q in
      let expected_set = fingerprint (Naive.collect g q) in
      let distinct_expected = Naive.count ~distinct:true g q in
      let cat = Catalog.create ~z:150 g in
      let plan, _ = Planner.plan cat q in
      let fail msg got want =
        QCheck2.Test.fail_reportf "%s: %d <> naive %d on %s" msg got want (Query.to_string q)
      in
      let ok msg v = v = expected || fail msg v expected in
      let ok_distinct msg v = v = distinct_expected || fail msg v distinct_expected in
      let same msg run =
        let ((n, _) as got) = delivered (Plan.vars plan) run in
        got = expected_set || fail (msg ^ " match set") n expected
      in
      let output (c, _, _) = c.Counters.output in
      same "cache off" (fun sink -> ignore (Exec.run_gov ~cache:false ~sink g plan))
      && ok "count" (Exec.count g plan)
      && ok_distinct "count distinct" (Exec.count ~distinct:true g plan)
      && (work (fst (Exec.run_gov g plan)) = work (fst (Exec.run_gov ~sink:ignore g plan))
         || QCheck2.Test.fail_reportf "count-only root counters differ on %s"
              (Query.to_string q))
      && List.for_all
           (fun d ->
             same
               (Printf.sprintf "parallel(%d) small morsels" d)
               (fun sink -> ignore (Parallel.run ~domains:d ~chunk:3 ~sink g plan))
             && ok
                  (Printf.sprintf "parallel count-only(%d)" d)
                  (Parallel.run ~domains:d ~chunk:3 g plan).counters.Counters.output
             && ok_distinct
                  (Printf.sprintf "parallel distinct(%d)" d)
                  (Parallel.run ~domains:d ~distinct:true ~chunk:5 g plan).counters
                    .Counters.output)
           [ 1; 2; 4 ]
      && same "adaptive" (fun sink -> ignore (Adaptive.run ~sink cat g q plan))
      && ok_distinct "adaptive distinct" (output (Adaptive.run ~distinct:true cat g q plan))
      && (let lim = (expected / 2) + 1 in
          let budget = Governor.budget ~max_output:lim () in
          let got =
            (Parallel.run ~domains:3 ~budget ~chunk:4 g plan).counters
              .Counters.output
          in
          let want = min lim expected in
          got = want || fail (Printf.sprintf "parallel limit %d" lim) got want)
      && (let db = Graphflow.Db.create ~z:150 g in
          let k = 1 + Rng.int rng 6 in
          let shard_plan, _ = Graphflow.Db.plan db q in
          let ((n, _) as got) =
            delivered (Plan.vars shard_plan) (fun sink ->
                for i = 0 to k - 1 do
                  ignore (Graphflow.Db.run_gov ~scan_part:(i, k) ~sink db q)
                done)
          in
          (got = expected_set
          || fail (Printf.sprintf "scan_part union k=%d match set" k) n expected)
          && ok
               (Printf.sprintf "scan_part count-only sum k=%d" k)
               (List.fold_left
                  (fun acc i ->
                    acc + (fst (Graphflow.Db.run_gov ~scan_part:(i, k) db q)).Counters.output)
                  0 (List.init k Fun.id)))
      && ok "bj baseline" (Bj.count g q)
      && ok "eh plan"
           (Exec.count g (Ghd.to_plan cat q (Ghd.min_width_decomposition q) Ghd.Lexicographic)))

(* Every SCAN taken apart and fed on one tuple at a time: groups of one
   run of length one all the way up (an E/I hands on one group per input
   run), the tuple-at-a-time reference for grouped execution. *)
let tuple_fed : Exec.rewrite =
 fun _ env node ->
  match node with
  | Plan.Scan { slabel; _ } ->
      let all = Exec.Sources (0, Graph.num_with_label env.Exec.g slabel) in
      let groups = Exec.scan env node (fun emit -> emit all) in
      Some
        (Exec.of_tuples env (fun sink ->
             groups (fun (grp : Exec.group) ->
                 let t = grp.tuple in
                 let w = Array.length t in
                 for j = grp.first to grp.last - 1 do
                   t.(w - 2) <- grp.keys.(j);
                   for i = Gf_util.Sorted.run_lo grp j to Gf_util.Sorted.run_hi grp j - 1 do
                     t.(w - 1) <- Gf_util.Buf.get grp.cands i;
                     sink t
                   done
                 done)))
  | _ -> None

(* Grouped execution is tuple-at-a-time execution: on random queries and
   plans, every work counter and the delivered rows, in order, equal those
   of the same plan fed one tuple at a time, with the cache on and off,
   homomorphic and [distinct], counted at the root and enumerated, under
   both kernels. *)
let prop_grouped_equals_tuple_fed =
  QCheck2.Test.make ~name:"grouped = tuple at a time" ~count:25
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng in
      let q = random_query rng g in
      let cat = Catalog.create ~z:150 g in
      let planned, _ = Planner.plan cat q in
      let order = Query.first_connected_order q in
      List.for_all
        (fun plan ->
          List.for_all
            (fun kernel ->
              Gf_util.Sorted.with_kernel_mode kernel (fun () ->
                  List.for_all
                    (fun (cache, distinct) ->
                      let rows = ref [] in
                      let run ?rewrite ~enum () =
                        rows := [];
                        let sink = if enum then Some (fun t -> rows := Array.copy t :: !rows) else None in
                        let c, _ = Exec.run_gov ?rewrite ~cache ~distinct ?sink g plan in
                        (work c, !rows)
                      in
                      List.for_all
                        (fun enum ->
                          run ~enum () = run ~rewrite:tuple_fed ~enum ()
                          || QCheck2.Test.fail_reportf "%s cache=%b distinct=%b enum=%b %s: grouped <> tuple at a time on %s"
                               (Gf_util.Sorted.kernel_mode_to_string kernel) cache distinct enum
                               (Plan.signature plan) (Query.to_string q))
                        [ false; true ])
                    [ (true, false); (false, false); (true, true); (false, true) ]))
            [ Gf_util.Sorted.Scalar; Gf_util.Sorted.Simd ])
        [ planned; Plan.wco q order ])

(* Q1-Q14 with random vertex labels on a two-label skewed graph whose
   hubs have bitmap rows: the E/I steps that probe a hub's all-label row
   must find Naive's match set through the planner's plan
   and the all-E/I plan, sequentially under both kernels, in parallel
   and adaptively. *)
let test_hub_rows_queries () =
  let rng = Rng.create 23 in
  let g =
    Graph.relabel
      (Generators.holme_kim rng ~n:200 ~m_per:5 ~p_triad:0.6 ~recip:0.3)
      rng ~num_vlabels:2 ~num_elabels:1
  in
  check_bool "graph has rows" true ((Graph.residency g).Graph.row_bytes > 0);
  let cat = Catalog.create ~z:150 g in
  for i = 1 to 14 do
    let q0 = Patterns.q i in
    let q =
      Query.create ~num_vertices:q0.Query.num_vertices
        ~vlabels:(Array.init q0.Query.num_vertices (fun _ -> Rng.int rng 2))
        ~edges:q0.Query.edges ()
    in
    let expected = fingerprint (Naive.collect g q) in
    let wco = Plan.wco q (Query.first_connected_order q) in
    List.iter
      (fun (which, plan) ->
        let same how run =
          let got = delivered (Plan.vars plan) run in
          if got <> expected then
            Alcotest.failf "Q%d %s plan %s: %d matches <> naive %d on %s" i which how (fst got)
              (fst expected) (Query.to_string q)
        in
        List.iter
          (fun mode ->
            same (Gf_util.Sorted.kernel_mode_to_string mode) (fun sink ->
                Gf_util.Sorted.with_kernel_mode mode (fun () ->
                    ignore (Exec.run_gov ~sink g plan))))
          [ Gf_util.Sorted.Scalar; Gf_util.Sorted.Simd ];
        same "parallel(3)" (fun sink ->
            ignore (Parallel.run ~domains:3 ~chunk:5 ~sink g plan));
        same "adaptive" (fun sink -> ignore (Adaptive.run ~sink cat g q plan)))
      [ ("planner", fst (Planner.plan cat q)); ("all-E/I", wco) ]
  done

(* Many parallel query edges: x->a, b->c and 17 (label, direction) edges
   on each of a-b and a-c, on a multigraph where some pairs carry every
   one of the 18, so an E/I has 17 stable lists from one column. The
   all-E/I plan of every ordering that scans a single edge must find
   Naive's match set
   under both kernels, with the counters of the same plan fed one tuple
   at a time. *)
let test_parallel_edges () =
  let rng = Rng.create 31 in
  let n = 12 and labels = 9 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.int rng 2 = 0 then
        for l = 0 to labels - 1 do
          edges := (u, v, l) :: (v, u, l) :: !edges
        done
      else if Rng.int rng 2 = 0 then edges := (u, v, 0) :: !edges
    done
  done;
  let g =
    Graph.build ~num_vlabels:1 ~num_elabels:labels ~vlabel:(Array.make n 0)
      ~edges:(Array.of_list !edges)
  in
  let x = 0 and a = 1 and b = 2 and c = 3 in
  let parallel u v =
    List.init 17 (fun i ->
        if i mod 2 = 0 then { Query.src = u; dst = v; label = i / 2 }
        else { Query.src = v; dst = u; label = i / 2 })
  in
  let q =
    Query.create ~num_vertices:4
      ~edges:
        (Array.of_list
           (({ Query.src = x; dst = a; label = 0 } :: { Query.src = b; dst = c; label = 0 } :: parallel a b)
           @ parallel a c))
      ()
  in
  let expected = fingerprint (Naive.collect g q) in
  check_bool "matches exist" true (fst expected > 0);
  List.iter
    (fun order ->
      let plan = Plan.wco q order in
      List.iter
        (fun mode ->
          Gf_util.Sorted.with_kernel_mode mode (fun () ->
              let label what =
                Printf.sprintf "%s %s: %s" (Gf_util.Sorted.kernel_mode_to_string mode)
                  (Plan.signature plan) what
              in
              let got = delivered (Plan.vars plan) (fun sink -> ignore (Exec.run_gov ~sink g plan)) in
              check_int (label "matches") (fst expected) (fst got);
              check_bool (label "match set") true (got = expected);
              List.iter
                (fun cache ->
                  let run ?rewrite () = work (fst (Exec.run_gov ?rewrite ~cache ~sink:ignore g plan)) in
                  Alcotest.(check (list int)) (label "counters") (run ~rewrite:tuple_fed ()) (run ()))
                [ true; false ]))
        [ Gf_util.Sorted.Scalar; Gf_util.Sorted.Simd ])
    [ [| x; a; b; c |]; [| x; a; c; b |]; [| b; c; a; x |]; [| c; b; a; x |] ]

(* Unlabeled shapes with automorphisms: re-numbering one can land on the
   same query value or on one whose canonical permutation differs from the
   cached template's by an automorphism. *)
let symmetric_query rng =
  match Rng.int rng 5 with
  | 0 -> Patterns.cycle 3
  | 1 -> Patterns.cycle 4
  | 2 -> Patterns.cycle 5
  | 3 -> Patterns.symmetric_diamond_x
  | _ -> Patterns.clique 4 ~cyclic:true

(* A plan-cache hit on a re-numbered isomorph: the first run of a query
   misses and plans, the same query under a random vertex numbering must
   hit the cached skeleton, and the plan instantiated for the new numbering
   must find Naive's matches on it. *)
let prop_plan_cache_renumbered_hit =
  QCheck2.Test.make ~name:"plan-cache hit on a re-numbered query = naive" ~count:25
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng in
      let q = if Rng.bool rng then random_query rng g else symmetric_query rng in
      let n = Query.num_vertices q in
      let perm = Array.init n Fun.id in
      Rng.shuffle rng perm;
      let q2 = Query.relabel_vertices q perm in
      (* Both lookups come before either run: the first run's observation
         could otherwise turn the second lookup into the entry's corrected
         replan, which the plan-cache tests cover. *)
      let cache = Plan_cache.create () in
      let db = Graphflow.Db.create ~z:150 ~plan_cache:cache g in
      let first = Graphflow.Db.prepare db q in
      let second = Graphflow.Db.prepare db q2 in
      let s = Plan_cache.stats cache in
      let check msg q prepared =
        let ((k, _) as got) =
          delivered
            (Plan.vars (Graphflow.Db.prepared_plan prepared))
            (fun sink -> ignore (Graphflow.Db.run_gov ~prepared ~sink db q))
        in
        let ((want, _) as expected) = fingerprint (Naive.collect g q) in
        got = expected
        || QCheck2.Test.fail_reportf "%s: %d matches <> naive %d on %s" msg k want
             (Query.to_string q)
      in
      if s.Plan_cache.hits <> 1 || s.Plan_cache.misses <> 1 then
        QCheck2.Test.fail_reportf "%d hits, %d misses (want 1, 1) on %s" s.Plan_cache.hits
          s.Plan_cache.misses (Query.to_string q)
      else check "first run" q first && check "re-numbered" q2 second)

(* Plan-cache churn: a capacity-4 cache under a stream of labeled 3-7
   vertex templates cut out of the data graph (more templates than
   slots), each request re-numbered afresh. Each entry's first run is fed
   back, so entries are evicted, hit after re-numbering and replanned
   under corrections; every count must equal Naive's. *)
let test_plan_cache_churn () =
  let totals = ref (0, 0, 0) in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let g =
        Graph.relabel
          (Generators.holme_kim rng ~n:80 ~m_per:3 ~p_triad:0.5 ~recip:0.3)
          rng ~num_vlabels:3 ~num_elabels:2
      in
      let templates =
        Array.init 10 (fun i ->
            Query_gen.from_data g rng ~num_vertices:(3 + (i mod 5)) ~dense:(i mod 3 = 0))
      in
      let expected = Array.map (Naive.count g) templates in
      let cache = Plan_cache.create ~capacity:4 () in
      let db = Graphflow.Db.create ~z:100 ~plan_cache:cache g in
      for _ = 1 to 60 do
        let i = Rng.int rng (Array.length templates) in
        let q = templates.(i) in
        let perm = Array.init (Query.num_vertices q) Fun.id in
        Rng.shuffle rng perm;
        let q' = Query.relabel_vertices q perm in
        let got = Graphflow.Db.count db q' in
        if got <> expected.(i) then
          Alcotest.failf "seed %d: %d matches <> naive %d on %s" seed got expected.(i)
            (Query.to_string q')
      done;
      let s = Plan_cache.stats cache in
      let h, e, r = !totals in
      totals := (h + s.Plan_cache.hits, e + s.Plan_cache.evictions, r + s.Plan_cache.replans))
    [ 1; 2; 3 ];
  let hits, evictions, replans = !totals in
  check_bool "hits" true (hits > 0);
  check_bool "evictions" true (evictions > 0);
  check_bool "replans" true (replans > 0)

(* Every spectrum plan counts right, and its count-only run does exactly
   the enumerating run's work. *)
let prop_spectrum_plans_agree =
  QCheck2.Test.make ~name:"every spectrum plan = naive" ~count:15
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng in
      let q = random_query rng g in
      let expected = Naive.count g q in
      let all, _ = Spectrum.plans ~per_subset_cap:3 ~family_cap:8 q in
      List.for_all
        (fun (fam, p) ->
          let got = Exec.count g p in
          let counted = fst (Exec.run_gov g p) in
          let enumerated = fst (Exec.run_gov ~sink:ignore g p) in
          if got <> expected then
            QCheck2.Test.fail_reportf "%s plan: %d <> %d on %s"
              (Spectrum.family_to_string fam) got expected (Query.to_string q)
          else if work counted <> work enumerated then
            QCheck2.Test.fail_reportf "%s plan: count-only counters differ on %s"
              (Spectrum.family_to_string fam) (Query.to_string q)
          else true)
        all)

(* The same spectrum — WCO, BJ and hybrid shapes alike — through the
   morsel-driven executor: parallel must equal sequential for every plan
   shape, with hash-join build work done once rather than per domain. *)
let prop_spectrum_plans_agree_parallel =
  QCheck2.Test.make ~name:"every spectrum plan: parallel = sequential" ~count:8
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng in
      let q = random_query rng g in
      let expected = Naive.count g q in
      let all, _ = Spectrum.plans ~per_subset_cap:2 ~family_cap:6 q in
      List.for_all
        (fun (fam, p) ->
          let seq = fst (Exec.run_gov g p) in
          List.for_all
            (fun d ->
              let r = Parallel.run ~domains:d ~chunk:7 g p in
              if r.counters.Counters.output <> expected then
                QCheck2.Test.fail_reportf "%s plan parallel(%d): %d <> %d on %s"
                  (Spectrum.family_to_string fam) d r.counters.Counters.output
                  expected (Query.to_string q)
              else if
                r.counters.Counters.hj_build_tuples
                <> seq.Counters.hj_build_tuples
              then
                QCheck2.Test.fail_reportf
                  "%s plan parallel(%d): build tuples %d <> sequential %d on %s"
                  (Spectrum.family_to_string fam) d
                  r.counters.Counters.hj_build_tuples seq.Counters.hj_build_tuples
                  (Query.to_string q)
              else true)
            [ 1; 2; 4 ])
        all)

let prop_cfl_agrees_distinct =
  QCheck2.Test.make ~name:"cfl = naive distinct" ~count:20
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng in
      let q = random_query rng g in
      Cfl.count g q = Naive.count ~distinct:true g q)

let prop_data_queries_match =
  QCheck2.Test.make ~name:"data-extracted queries have >= 1 distinct match" ~count:20
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng in
      let q = Query_gen.from_data g rng ~num_vertices:(4 + Rng.int rng 4) ~dense:(Rng.bool rng) in
      Naive.count ~distinct:true g q >= 1)

(* The morsels of a skewed (power-law) graph's driving scan tile its edges
   exactly, each within the edge budget, with the largest hub cut over
   several of them; a scan with no edges has none; and the domains'
   outputs, one morsel at a time, add up to the sequential count. *)
let test_morsels_cut_edges () =
  let g = Generators.dataset ~scale:0.02 Generators.Twitter in
  let q = Patterns.q 1 in
  let plan = Plan.wco q [| 0; 1; 2 |] in
  let elabel, slabel, dlabel =
    match Exec.driving_scan plan with
    | Plan.Scan { edge; slabel; dlabel; _ } -> (edge.Gf_query.Query.label, slabel, dlabel)
    | _ -> assert false
  in
  let sources = Graph.vertices_with_label g slabel in
  let degree i = Graph.partition_size g Graph.Fwd sources.(i) ~elabel ~nlabel:dlabel in
  (* Each source's pieces, as [a, b) edge offsets. *)
  let pieces = Array.make (Array.length sources) [] in
  let hub = ref 0 in
  Array.iteri (fun i _ -> if degree i > degree !hub then hub := i) sources;
  (* A budget the largest hub exceeds about threefold. *)
  let chunk = degree !hub / 3 in
  let ms = Parallel.morsels ~chunk g plan in
  let hub_morsels = ref 0 in
  Array.iter
    (fun m ->
      let edges =
        match m with
        | Exec.Sources (lo, hi) ->
            let n = ref 0 in
            for i = lo to hi - 1 do
              if degree i > 0 then pieces.(i) <- (0, degree i) :: pieces.(i);
              n := !n + degree i;
              if i = !hub then incr hub_morsels
            done;
            !n
        | Exec.Edges (i, a, b) ->
            pieces.(i) <- (a, b) :: pieces.(i);
            if i = !hub then incr hub_morsels;
            b - a
      in
      check_bool "a morsel has edges" true (edges > 0);
      check_bool "a morsel fits the budget" true (edges <= chunk))
    ms;
  Array.iteri
    (fun i ps ->
      let tiled =
        List.fold_left (fun at (a, b) -> if a = at && b > a then b else -1) 0
          (List.sort compare ps)
      in
      if tiled <> degree i then
        Alcotest.failf "source %d: pieces do not tile its %d edges" i (degree i))
    pieces;
  check_bool "the largest hub spans several morsels" true (!hub_morsels > 1);
  let seq = Exec.count g plan in
  let r = Parallel.run ~domains:4 ~chunk g plan in
  check_int "skewed count" seq r.counters.Counters.output;
  check_int "shares sum to output" seq (Array.fold_left ( + ) 0 r.Parallel.per_domain_output);
  check_int "every morsel run once" (Array.length ms) r.counters.Counters.morsels;
  (* A scan without sources, and one whose sources have no edges. *)
  let edge =
    Query.create ~num_vertices:2 ~vlabels:[| 1; 0 |]
      ~edges:[| { Query.src = 0; dst = 1; label = 0 } |]
      ()
  in
  let scan = Plan.wco edge [| 0; 1 |] in
  List.iter
    (fun (what, vlabel) ->
      let g = Graph.build ~num_vlabels:2 ~num_elabels:1 ~vlabel ~edges:[| (1, 2, 0); (2, 0, 0) |] in
      check_int (what ^ ": no morsels") 0 (Array.length (Parallel.morsels ~chunk:4 g scan));
      check_int (what ^ ": nothing matched") 0
        (Parallel.run ~domains:2 ~chunk:4 g scan).counters.Counters.output)
    [ ("no sources", [| 0; 0; 0 |]); ("degree-0 sources", [| 1; 0; 0 |]) ]

let test_parallel_hybrid_features () =
  let g = Generators.holme_kim (Rng.create 11) ~n:300 ~m_per:4 ~p_triad:0.5 ~recip:0.4 in
  let q = Patterns.diamond_x in
  let plan = Plan.hash_join q (Plan.wco q [| 1; 2; 0 |]) (Plan.wco q [| 1; 2; 3 |]) in
  let seqc = fst (Exec.run_gov g plan) in
  List.iter
    (fun d ->
      let r = Parallel.run ~domains:d ~chunk:8 g plan in
      check_int (Printf.sprintf "hybrid count %dd" d) seqc.Counters.output
        r.counters.Counters.output;
      (* Build side executed once, not once per domain. *)
      check_int
        (Printf.sprintf "hybrid build tuples %dd" d)
        seqc.Counters.hj_build_tuples r.counters.Counters.hj_build_tuples)
    [ 1; 2; 4 ];
  let sd = (fst (Exec.run_gov ~distinct:true g plan)).Counters.output in
  List.iter
    (fun d ->
      check_int
        (Printf.sprintf "hybrid distinct %dd" d)
        sd
        (Parallel.run ~domains:d ~distinct:true g plan).counters.Counters.output)
    [ 1; 2; 4 ];
  let lim = (seqc.Counters.output / 3) + 1 in
  check_int "hybrid limit exact"
    (min lim seqc.Counters.output)
    (Parallel.run ~domains:4 ~budget:(Governor.budget ~max_output:lim ()) ~chunk:8
       g plan)
      .counters
      .Counters.output;
  let acc = ref 0 in
  let (_ : Parallel.report) = Parallel.run ~domains:4 ~sink:(fun _ -> incr acc) g plan in
  check_int "thread-safe sink sees every tuple" seqc.Counters.output !acc

(* Regression: the adaptive executor used to ignore distinct semantics —
   adaptively-routed segments emitted tuples with repeated data vertices
   that a distinct [Exec] run filters. Pin adaptive = Exec = naive under
   [distinct] on queries long enough to be adaptable: a 4-clique, and a
   4-cycle on a reciprocal-heavy graph where non-injective matches
   actually exist (so the filter provably fires). *)
let test_adaptive_distinct () =
  let g = Generators.holme_kim (Rng.create 5) ~n:250 ~m_per:4 ~p_triad:0.6 ~recip:0.6 in
  let cat = Catalog.create ~z:150 g in
  List.iter
    (fun (name, q) ->
      let plan = Plan.wco q (Array.init (Query.num_vertices q) Fun.id) in
      let expected = Naive.count ~distinct:true g q in
      check_int (name ^ ": exec distinct")
        expected
        (fst (Exec.run_gov ~distinct:true g plan)).Counters.output;
      check_int (name ^ ": adaptive distinct")
        expected
        (let c, _, _ = Adaptive.run ~distinct:true cat g q plan in c).Counters.output)
    [ ("clique", Patterns.clique 4 ~cyclic:false); ("cycle", Patterns.cycle 4) ];
  (* The cycle admits a1=a3 / a2=a4 homomorphisms over reciprocal edges, so
     distinct must strictly shrink the count here — otherwise this test
     exercises nothing. *)
  let q = Patterns.cycle 4 in
  check_bool "filter actually fires" true
    (Naive.count ~distinct:true g q < Naive.count g q)

let test_count_by () =
  let g = Generators.holme_kim (Rng.create 7) ~n:150 ~m_per:4 ~p_triad:0.5 ~recip:0.3 in
  let db = Graphflow.Db.create ~z:150 g in
  let q = Patterns.asymmetric_triangle in
  let by_a1 = Graphflow.Db.count_by db q ~key:[ 0 ] in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 by_a1 in
  check_int "group counts sum to total" (Graphflow.Db.count db q) total;
  (* Sorted descending. *)
  let rec desc = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && desc rest
    | _ -> true
  in
  check_bool "descending" true (desc by_a1);
  (* Grouping by all vertices gives singleton groups. *)
  let by_all = Graphflow.Db.count_by db q ~key:[ 0; 1; 2 ] in
  check_bool "all-key groups are singletons" true (List.for_all (fun (_, n) -> n = 1) by_all);
  check_bool "bad key rejected" true
    (try ignore (Graphflow.Db.count_by db q ~key:[ 9 ]); false with Invalid_argument _ -> true)

let test_to_dot () =
  let q = Patterns.q 9 in
  let hybrid =
    Plan.extend q
      (Plan.hash_join q (Plan.wco q [| 2; 3; 4 |]) (Plan.wco q [| 0; 1; 2 |]))
      5
  in
  let dot = Plan.to_dot hybrid in
  check_bool "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  List.iter
    (fun needle ->
      check_bool (needle ^ " present") true
        (let re = Str.regexp_string needle in
         try ignore (Str.search_forward re dot 0); true with Not_found -> false))
    [ "SCAN"; "HASH-JOIN"; "E/I"; "build"; "probe" ]

let suite =
  let q t = QCheck_alcotest.to_alcotest t in
  [
    ( "crosscheck",
      [
        q prop_all_engines_agree;
        q prop_grouped_equals_tuple_fed;
        q prop_plan_cache_renumbered_hit;
        Alcotest.test_case "plan-cache churn = naive" `Quick test_plan_cache_churn;
        Alcotest.test_case "Q1-Q14 over hub rows = naive" `Quick test_hub_rows_queries;
        Alcotest.test_case "17 parallel edges = naive" `Quick test_parallel_edges;
        q prop_spectrum_plans_agree;
        q prop_spectrum_plans_agree_parallel;
        q prop_cfl_agrees_distinct;
        q prop_data_queries_match;
      ] );
    ( "parallel.morsel",
      [
        Alcotest.test_case "morsels tile the scan" `Quick test_morsels_cut_edges;
        Alcotest.test_case "hybrid features" `Quick test_parallel_hybrid_features;
      ] );
    ( "api",
      [
        Alcotest.test_case "adaptive distinct" `Quick test_adaptive_distinct;
        Alcotest.test_case "count_by" `Quick test_count_by;
        Alcotest.test_case "to_dot" `Quick test_to_dot;
      ] );
  ]
