(* Governor robustness: budgets, structured outcomes, cross-domain
   cancellation promptness, and deterministic fault injection. The fault
   seed honors GFQ_FAULT_SEED so CI can sweep unwinding points. *)

module Graph = Gf_graph.Graph
module Generators = Gf_graph.Generators
module Rng = Gf_util.Rng
module Timing = Gf_util.Timing
module Query = Gf_query.Query
module Patterns = Gf_query.Patterns
module Plan = Gf_plan.Plan
module Exec = Gf_exec.Exec
module Counters = Gf_exec.Counters
module Governor = Gf_exec.Governor
module Parallel = Gf_exec.Parallel
module Trace = Gf_obs.Trace
module Catalog = Gf_catalog.Catalog
module Adaptive = Gf_adaptive.Adaptive

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fault_seed =
  match Option.bind (Sys.getenv_opt "GFQ_FAULT_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 7

let graph () = Generators.holme_kim (Rng.create 11) ~n:400 ~m_per:5 ~p_triad:0.6 ~recip:0.3

(* High clustering plus planted 8-cliques: the acyclic 4-clique Q5 keeps
   producing tuples for far longer than any deadline used below. *)
let clique_graph () =
  let rng = Rng.create 42 in
  Generators.plant_cliques rng
    (Generators.holme_kim rng ~n:6_000 ~m_per:8 ~p_triad:0.9 ~recip:0.3)
    ~count:120 ~size:8

(* Twice as many, larger planted cliques, with the acyclic 5-clique Q7:
   a run that outlasts a 50 ms deadline, or a cancel 20 ms in, by a wide
   margin even on a fast host. On a 2-vCPU host Q7 here takes about
   120 ms counted at the root at 2 domains and 250 ms enumerated at one;
   Q5 on [clique_graph] takes about 25 and 50 ms, too close. *)
let heavy_clique_graph () =
  let rng = Rng.create 42 in
  Generators.plant_cliques rng
    (Generators.holme_kim rng ~n:6_000 ~m_per:8 ~p_triad:0.9 ~recip:0.3)
    ~count:240 ~size:10

let identity_wco q = Plan.wco q (Array.init (Query.num_vertices q) Fun.id)

let q7_plan () = identity_wco (Patterns.q 7)

let q5_plan () =
  let q = Patterns.q 5 in
  identity_wco q

let triangle_plan () = identity_wco (Patterns.q 1)

let hj_plan () =
  let q = Patterns.cycle 4 in
  Plan.hash_join q (Plan.wco q [| 0; 1; 2 |]) (Plan.wco q [| 2; 3; 0 |])

let key t = String.concat "," (List.map string_of_int (Array.to_list t))

let is_truncated r o = o = Governor.Truncated r

let test_unlimited_completes () =
  let g = graph () in
  let plan = triangle_plan () in
  let total = Exec.count g plan in
  let c, o = Exec.run_gov g plan in
  check_bool "completed" true (o = Governor.Completed);
  check_int "all outputs" total c.Counters.output;
  check_bool "checks recorded" true (c.Counters.gov_checks > 0)

let test_output_cap_exact () =
  let g = graph () in
  let plan = triangle_plan () in
  let total = Exec.count g plan in
  check_bool "enough matches" true (total > 10);
  List.iter
    (fun cap ->
      let budget = Governor.budget ~max_output:cap () in
      let c, o = Exec.run_gov ~budget g plan in
      check_int (Printf.sprintf "cap %d outputs" cap) (min cap total) c.Counters.output;
      if cap <= total then
        check_bool
          (Printf.sprintf "cap %d truncated" cap)
          true
          (is_truncated Governor.Output_limit o)
      else check_bool (Printf.sprintf "cap %d completed" cap) true (o = Governor.Completed))
    [ 1; total / 2; total; total + 5 ]

let test_truncated_prefix_sequential () =
  (* A sequential truncated run's outputs are exactly a prefix of the full
     run's output stream. *)
  let g = graph () in
  let plan = triangle_plan () in
  let collect budget =
    let out = ref [] in
    let _, o = Exec.run_gov ?budget ~sink:(fun t -> out := key t :: !out) g plan in
    (List.rev !out, o)
  in
  let full, o_full = collect None in
  check_bool "full completed" true (o_full = Governor.Completed);
  let cap = List.length full / 3 in
  let part, o_part = collect (Some (Governor.budget ~max_output:cap ())) in
  check_bool "partial truncated" true (is_truncated Governor.Output_limit o_part);
  check_int "prefix length" cap (List.length part);
  check_bool "prefix consistent" true (part = List.filteri (fun i _ -> i < cap) full)

let test_truncated_subset_parallel () =
  (* Parallel truncation emits some min(cap, total)-sized subset of the full
     result, never an invented tuple and never a duplicate (the query has no
     automorphic duplicates under a WCO identity order). *)
  let g = graph () in
  let plan = triangle_plan () in
  let full = Hashtbl.create 1024 in
  let r_full =
    Parallel.run ~domains:4 ~sink:(fun t -> Hashtbl.replace full (key t) ()) g plan
  in
  check_bool "full completed" true (r_full.Parallel.outcome = Governor.Completed);
  let total = r_full.counters.Counters.output in
  let cap = total / 3 in
  let seen = ref [] in
  let r =
    Parallel.run ~domains:4
      ~budget:(Governor.budget ~max_output:cap ())
      ~sink:(fun t -> seen := key t :: !seen)
      g plan
  in
  check_bool "truncated" true (is_truncated Governor.Output_limit r.Parallel.outcome);
  check_int "exactly cap outputs" cap r.counters.Counters.output;
  check_int "sink saw each claim" cap (List.length !seen);
  check_int "domain split adds up" cap
    (Array.fold_left ( + ) 0 r.Parallel.per_domain_output);
  List.iter (fun k -> check_bool "subset of full" true (Hashtbl.mem full k)) !seen;
  let dedup = Hashtbl.create cap in
  List.iter (fun k -> Hashtbl.replace dedup k ()) !seen;
  check_int "no duplicates" cap (Hashtbl.length dedup)

let test_intermediate_cap () =
  let g = clique_graph () in
  let plan = q5_plan () in
  let cap = 1_000 in
  let c, o = Exec.run_gov ~budget:(Governor.budget ~max_intermediate:cap ()) g plan in
  check_bool "truncated" true (is_truncated Governor.Intermediate_limit o);
  (* Sequential: overshoot is bounded by one check cadence. *)
  check_bool "within one cadence" true
    (c.Counters.produced >= cap && c.Counters.produced <= cap + Governor.cadence)

let test_memory_cap () =
  let g = graph () in
  let c, o = Exec.run_gov ~budget:(Governor.budget ~max_bytes:256 ()) g (hj_plan ()) in
  check_bool "build trips byte cap" true (is_truncated Governor.Memory_limit o);
  ignore c;
  (* The shared build of a parallel run charges the same rows, from every
     domain that appends to a partial table, under one byte total. *)
  let r =
    Parallel.run ~domains:2 ~chunk:64 ~budget:(Governor.budget ~max_bytes:256 ()) g (hj_plan ())
  in
  check_bool "parallel build trips byte cap" true
    (is_truncated Governor.Memory_limit r.Parallel.outcome)

let test_deadline_promptness () =
  (* The acceptance gate: a 50 ms deadline on a clique-heavy graph returns
     Truncated Deadline promptly at 1 and at 4 domains, with
     counter totals intact and every domain joined. The bound here is looser
     than the benchmarked 150 ms to tolerate loaded CI machines. The run
     enumerates into a sink: counting at the root, 4 domains on two cores
     can finish a query inside the deadline ("count-only root deadline"
     trips that path deterministically). *)
  let g = heavy_clique_graph () in
  let plan = q7_plan () in
  List.iter
    (fun domains ->
      let gov = Governor.create (Governor.budget ~deadline_s:0.05 ~max_output:1_000_000 ()) in
      let t0 = Timing.now_s () in
      let r = Parallel.run ~domains ~gov ~sink:ignore g plan in
      let dt = Timing.now_s () -. t0 in
      check_bool
        (Printf.sprintf "%d domains: deadline outcome" domains)
        true
        (is_truncated Governor.Deadline r.Parallel.outcome);
      check_bool (Printf.sprintf "%d domains: token observed" domains) true
        (Governor.tripped gov);
      check_bool (Printf.sprintf "%d domains: prompt (%.0f ms)" domains (dt *. 1000.)) true
        (dt < 1.0);
      check_bool (Printf.sprintf "%d domains: produced something" domains) true
        (r.counters.Counters.produced > 0);
      check_int
        (Printf.sprintf "%d domains: per-domain counters" domains)
        domains
        (Array.length r.Parallel.per_domain);
      check_int
        (Printf.sprintf "%d domains: output totals add up" domains)
        r.counters.Counters.output
        (Array.fold_left ( + ) 0 r.Parallel.per_domain_output))
    [ 1; 4 ]

let test_cancel_from_another_domain () =
  let g = heavy_clique_graph () in
  let plan = q7_plan () in
  let gov = Governor.create Governor.unlimited in
  let canceller =
    Domain.spawn (fun () ->
        let t0 = Timing.now_s () in
        while Timing.now_s () -. t0 < 0.02 do
          Domain.cpu_relax ()
        done;
        Governor.cancel gov)
  in
  let r = Parallel.run ~domains:2 ~gov g plan in
  Domain.join canceller;
  check_bool "cancelled" true (is_truncated Governor.Cancelled r.Parallel.outcome)

let test_fault_mid_extend () =
  (* Deterministic unwinding mid-intersection: the injected fault fires at
     the first governor check at or past a seeded produced-tuple count. *)
  let g = clique_graph () in
  let plan = q5_plan () in
  let rng = Rng.create fault_seed in
  let at = 1 + Rng.int rng 20_000 in
  let fault = { Governor.at_tuple = at; operator = "extend" } in
  let c, o = Exec.run_gov ~fault g plan in
  (match o with
  | Governor.Failed e ->
      check_bool "operator recorded" true (e.Governor.operator = "extend")
  | _ -> Alcotest.fail "expected a Failed outcome");
  check_bool "fired at the seeded point" true
    (c.Counters.produced >= at && c.Counters.produced <= at + (2 * Governor.cadence));
  (* Parallel: same fault, all domains unwind and join; counter totals
     survive the failure. *)
  let r = Parallel.run ~domains:4 ~fault g plan in
  (match r.Parallel.outcome with
  | Governor.Failed _ -> ()
  | _ -> Alcotest.fail "expected a parallel Failed outcome");
  check_bool "parallel counters flushed" true (r.counters.Counters.produced >= at)

let test_fault_mid_hash_build () =
  let g = graph () in
  let plan = hj_plan () in
  let fault = { Governor.at_tuple = 5; operator = "hash-build" } in
  let r = Parallel.run ~domains:2 ~fault g plan in
  (match r.Parallel.outcome with
  | Governor.Failed _ -> ()
  | _ -> Alcotest.fail "expected failure during the shared build");
  (* Clean unwinding: the same plan runs to completion immediately after. *)
  let r2 = Parallel.run ~domains:2 g plan in
  check_bool "rerun completes" true (r2.Parallel.outcome = Governor.Completed);
  check_int "rerun count intact" (Exec.count g plan) r2.counters.Counters.output

(* Two labeled anchors [a] (label 1) and [b] (label 2), each pointing at
   its own block of label-0 targets — [overlap] of them shared, plus
   [private_each] private per anchor — and the single edge [a -> b]. The
   labeled triangle below scans exactly one tuple off that edge and then
   closes with one intersection over both (huge) adjacency lists. *)
(* With [tail], one more vertex (label 3) that every shared target points
   to, so a 4-vertex pattern can extend the triangle by one more E/I. *)
let anchored_graph ?(tail = false) ~overlap ~private_each () =
  let n = 2 + overlap + (2 * private_each) in
  let vlabel = Array.make (if tail then n + 1 else n) 0 in
  vlabel.(0) <- 1;
  vlabel.(1) <- 2;
  if tail then vlabel.(n) <- 3;
  let edges = ref [ (0, 1, 0) ] in
  for i = 0 to overlap - 1 do
    let v = 2 + i in
    edges := (0, v, 0) :: (1, v, 0) :: !edges;
    if tail then edges := (v, n, 0) :: !edges
  done;
  for i = 0 to private_each - 1 do
    edges := (0, 2 + overlap + i, 0) :: !edges;
    edges := (1, 2 + overlap + private_each + i, 0) :: !edges
  done;
  Graph.build
    ~num_vlabels:(if tail then 4 else 3)
    ~num_elabels:1 ~vlabel ~edges:(Array.of_list !edges)

let anchored_triangle () =
  Query.create ~num_vertices:3 ~vlabels:[| 1; 2; 0 |]
    ~edges:
      [|
        { Query.src = 0; dst = 1; label = 0 };
        { Query.src = 0; dst = 2; label = 0 };
        { Query.src = 1; dst = 2; label = 0 };
      |]
    ()

(* The anchored triangle plus its tail vertex: the identity plan's E/I
   chain has two operators, so the adaptive evaluator takes it over, and
   its first step is the giant intersection. *)
let anchored_tailed () =
  Query.create ~num_vertices:4 ~vlabels:[| 1; 2; 0; 3 |]
    ~edges:
      [|
        { Query.src = 0; dst = 1; label = 0 };
        { Query.src = 0; dst = 2; label = 0 };
        { Query.src = 1; dst = 2; label = 0 };
        { Query.src = 2; dst = 3; label = 0 };
      |]
    ()

let test_tick_granularity () =
  (* Regression for deadline granularity inside one E/I intersection. The
     closing intersection here scans 100k adjacency entries and produces
     nothing, while the scan produced a single tuple — far less than one
     check cadence. Before work-based ticking the governor never looked
     during (or after) the intersection, so an at_tuple=1 fault and an
     already-expired deadline were both silently outrun: the run came back
     Completed. With [tick_work] the scanned list length itself drains the
     check fuel. Fully deterministic — no wall-clock assertions. *)
  let g = anchored_graph ~overlap:0 ~private_each:50_000 () in
  let plan = identity_wco (anchored_triangle ()) in
  check_int "the query itself is empty" 0 (Exec.count g plan);
  let fault = { Governor.at_tuple = 1; operator = "granularity" } in
  let _, o = Exec.run_gov ~fault g plan in
  (match o with
  | Governor.Failed e ->
      check_bool "fault operator recorded" true (e.Governor.operator = "granularity")
  | _ -> Alcotest.fail "fault must be seen inside the unproductive intersection");
  let _, o = Exec.run_gov ~budget:(Governor.budget ~deadline_s:0.0 ()) g plan in
  check_bool "expired deadline seen mid-intersection" true
    (is_truncated Governor.Deadline o)

let test_segmented_intersection () =
  (* Adjacency lists longer than the segmentation threshold (8192): the
     k-way intersection is computed over sub-slices of its smallest input.
     It must still find exactly the shared targets, and a tripped
     budget must unwind before the (well-known) full result is emitted. *)
  let overlap = 9_000 and private_each = 2_000 in
  let g = anchored_graph ~overlap ~private_each () in
  let plan = identity_wco (anchored_triangle ()) in
  let rows = ref [] in
  let _, o = Exec.run_gov ~sink:(fun t -> rows := Array.copy t :: !rows) g plan in
  check_bool "completed" true (o = Governor.Completed);
  check_int "pairwise finds every shared target" overlap (List.length !rows);
  let c, o = Exec.run_gov ~budget:(Governor.budget ~deadline_s:0.0 ()) g plan in
  check_bool "deadline trips inside the segmented intersection" true
    (is_truncated Governor.Deadline o);
  check_bool "tripped before the full result" true (c.Counters.output < overlap);
  (* The adaptive evaluator looks its extension sets up through the same
     E/I lookup, so its giant intersection is segmented and charged too. *)
  let g = anchored_graph ~tail:true ~overlap ~private_each () in
  let q = anchored_tailed () in
  let plan = identity_wco q in
  check_bool "tailed plan is adaptable" true (Adaptive.adaptable plan);
  let cat = Catalog.create g in
  let collect run =
    let rows = ref [] in
    let o = run (fun t -> rows := Array.copy t :: !rows) in
    check_bool "completed" true (o = Governor.Completed);
    List.sort compare !rows
  in
  let exec sink = snd (Exec.run_gov ~sink g plan) in
  let adaptive sink =
    let gov = Governor.create Governor.unlimited in
    ignore (Adaptive.run ~gov ~sink cat g q plan);
    Governor.outcome gov
  in
  List.iter
    (fun mode ->
      Gf_util.Sorted.with_kernel_mode mode (fun () ->
          let name = Gf_util.Sorted.kernel_mode_to_string mode in
          let expected = collect exec in
          check_int (name ^ ": every shared target") overlap (List.length expected);
          check_bool (name ^ ": adaptive agrees") true (collect adaptive = expected)))
    [ Gf_util.Sorted.Scalar; Gf_util.Sorted.Simd ];
  let gov = Governor.create (Governor.budget ~deadline_s:0.0 ()) in
  let c, _, _ = Adaptive.run ~gov cat g q plan in
  check_bool "adaptive: deadline trips inside the segmented intersection" true
    (is_truncated Governor.Deadline (Governor.outcome gov));
  check_int "adaptive: the giant intersection started" 1 c.Counters.intersections;
  check_int "adaptive: tripped between its segments" 0 c.Counters.output

(* The clamp arithmetic of [claim_outputs] and [fuel] on one handle: the
   claim that crosses the cap gets the remainder and the next one gets
   nothing, a branch otherwise reached only by concurrent domains; fuel
   reads at least 1 after a charge larger than what was left. *)
let test_claim_clamp () =
  let gov = Governor.create (Governor.budget ~max_output:10 ()) in
  let h = Governor.handle gov [||] in
  List.iter2
    (fun n want -> check_int (Printf.sprintf "claim %d" n) want (Governor.claim_outputs h n))
    [ 8; 5; 3 ] [ 8; 2; 0 ];
  check_bool "truncated by the output cap" true
    (is_truncated Governor.Output_limit (Governor.outcome gov));
  let h = Governor.handle (Governor.create Governor.unlimited) [||] in
  Governor.tick_work h (Governor.fuel h + 100);
  check_bool "fuel at least 1 after an overdraw" true (Governor.fuel h >= 1)

(* Without a sink the root E/I counts, claiming whole extension sets
   through [Governor.claim_outputs]. An output cap — the degraded rung's
   10 000 among them — must still stop it at exactly the cap, sequential,
   at 1, 2 and 4 domains, and through the Db facade. *)
let test_count_root_output_cap () =
  let g = clique_graph () in
  let q = Patterns.q 5 in
  let plan = q5_plan () in
  let total = Exec.count g plan in
  let degraded = Gf_server.Ladder.default_config.Gf_server.Ladder.degraded_budget in
  let db = Graphflow.Db.create g in
  List.iter
    (fun budget ->
      let cap = Option.get budget.Governor.max_output in
      check_bool (Printf.sprintf "cap %d below the total" cap) true (cap < total);
      let expect what (c : Counters.t) o =
        check_int (Printf.sprintf "cap %d %s: outputs" cap what) cap c.Counters.output;
        check_bool
          (Printf.sprintf "cap %d %s: truncated by the cap" cap what)
          true
          (is_truncated Governor.Output_limit o)
      in
      let c, o = Exec.run_gov ~budget g plan in
      expect "sequential" c o;
      List.iter
        (fun domains ->
          let r = Parallel.run ~domains ~budget g plan in
          expect (Printf.sprintf "%d domains" domains) r.counters r.Parallel.outcome;
          check_int
            (Printf.sprintf "cap %d %d domains: shares add up" cap domains)
            cap
            (Array.fold_left ( + ) 0 r.Parallel.per_domain_output);
          let c, o = Graphflow.Db.run_gov ~domains ~budget db q in
          expect (Printf.sprintf "Db, %d domains" domains) c o)
        [ 1; 2; 4 ])
    [ Governor.budget ~max_output:1 (); Governor.budget ~max_output:(total / 3) (); degraded ]

(* A deadline must still cut a count-only root short inside one giant
   intersection: the run stops between segments, before the extension set
   is complete and counted. *)
let test_count_root_deadline () =
  let overlap = 9_000 and private_each = 2_000 in
  let g = anchored_graph ~overlap ~private_each () in
  let plan = identity_wco (anchored_triangle ()) in
  check_int "full count" overlap (Exec.count g plan);
  let budget = Governor.budget ~deadline_s:0.0 () in
  let expect what (c : Counters.t) o =
    check_bool (what ^ ": deadline") true (is_truncated Governor.Deadline o);
    check_int (what ^ ": the intersection started") 1 c.Counters.intersections;
    check_int (what ^ ": nothing counted") 0 c.Counters.output
  in
  let c, o = Exec.run_gov ~budget g plan in
  expect "sequential" c o;
  List.iter
    (fun domains ->
      let r = Parallel.run ~domains ~budget g plan in
      expect (Printf.sprintf "%d domains" domains) r.counters r.Parallel.outcome)
    [ 1; 2; 4 ]

(* A hub (vertex 0, label 1) with [fan] out-neighbours (label 0), each
   pointing at the next three: anchored at the hub, the triangle's SCAN
   hands the E/I one run of [fan] candidates. *)
let hub_run_graph ~fan =
  let vlabel = Array.init (fan + 4) (fun v -> if v = 0 then 1 else 0) in
  let edges = ref [] in
  for i = 1 to fan do
    edges := (0, i, 0) :: !edges;
    for d = 1 to 3 do
      edges := (i, i + d, 0) :: !edges
    done
  done;
  Graph.build ~num_vlabels:2 ~num_elabels:1 ~vlabel ~edges:(Array.of_list !edges)

let hub_triangle () =
  Query.create ~num_vertices:3 ~vlabels:[| 1; 0; 0 |]
    ~edges:
      [|
        { Query.src = 0; dst = 1; label = 0 };
        { Query.src = 0; dst = 2; label = 0 };
        { Query.src = 1; dst = 2; label = 0 };
      |]
    ()

(* Inside one run the E/I consults the governor between chunks: handed the
   hub's whole run under an expired deadline, it stops after one kernel
   chunk, not after the run. *)
let test_run_deadline_within_chunk () =
  let fan = 3_000 in
  let g = hub_run_graph ~fan in
  let plan = identity_wco (hub_triangle ()) in
  let descriptors =
    match plan with Plan.Extend { descriptors; _ } -> descriptors | _ -> assert false
  in
  let gov = Governor.create (Governor.budget ~deadline_s:0.0 ()) in
  let env = Exec.make_env ~cache:true ~distinct:false g gov plan in
  let row = Exec.row env plan in
  let x = Exec.extend env row ~target_label:0 ~width:2 descriptors in
  let cands, lo, hi = Graph.neighbours g Graph.Fwd 0 ~elabel:0 ~nlabel:0 in
  check_int "one run of the whole fan" fan (hi - lo);
  let run =
    { Exec.tuple = [| 0; 0 |]; cands; keys = [| 0 |]; starts = [| lo |]; ends = [| hi |]; first = 0;
      last = 1; lo; hi }
  in
  List.iter
    (fun count ->
      row.Counters.intersections <- 0;
      Exec.reset_extend x;
      let tripped = try Exec.extend_group x ~count ignore run; false with Governor.Trip -> true in
      check_bool (Printf.sprintf "count=%b: deadline seen inside the run" count) true tripped;
      check_bool
        (Printf.sprintf "count=%b: within one chunk (%d intersections)" count
           row.Counters.intersections)
        true
        (row.Counters.intersections > 0
        && row.Counters.intersections <= Gf_util.Sorted.run_chunk))
    [ true; false ];
  check_bool "outcome" true (Governor.outcome gov = Governor.Truncated Governor.Deadline)

(* A count-only root claims whole chunks of extension sets at once; under
   an output cap it still counts exactly [min cap total], wherever the cap
   falls among the chunks of the hub's run. *)
let test_run_count_cap_across_chunks () =
  let g = hub_run_graph ~fan:3_000 in
  let plan = identity_wco (hub_triangle ()) in
  let total = Exec.count g plan in
  check_bool "several chunks of output" true (total > 10 * Gf_util.Sorted.run_chunk);
  List.iter
    (fun cap ->
      let c, o = Exec.run_gov ~budget:(Governor.budget ~max_output:cap ()) g plan in
      check_int (Printf.sprintf "cap %d: outputs" cap) (min cap total) c.Counters.output;
      check_bool
        (Printf.sprintf "cap %d: outcome" cap)
        true
        (if cap <= total then is_truncated Governor.Output_limit o else o = Governor.Completed))
    [ 1; 100; 191; 192; 193; 1_000; total - 1; total; total + 1 ]

(* Grouped execution against the same plan fed one tuple at a time
   ([Test_crosscheck.tuple_fed]): SCAN hands the E/I groups of 64 source
   runs and each E/I hands on groups of sibling runs, so budget trips fall
   inside groups. *)
let tuple_fed = Test_crosscheck.tuple_fed

(* The rows of a run, in delivery order, and its counters and outcome. *)
let rows_of ?rewrite ?budget ?fault g plan =
  let rows = ref [] in
  let c, o = Exec.run_gov ?rewrite ?budget ?fault ~sink:(fun t -> rows := Array.copy t :: !rows) g plan in
  (List.rev !rows, c, o)

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a, y :: b -> x = y && is_prefix a b
  | _ :: _, [] -> false

(* A count-only root claims a kernel chunk's counts in one go, across the
   runs of a group: an output cap landing inside the k-th run of a SCAN
   group still counts exactly [min cap total], the tuple-at-a-time
   count. *)
let test_group_count_cap () =
  let g = graph () in
  let plan = triangle_plan () in
  let full, _, _ = rows_of ~rewrite:tuple_fed g plan in
  let total = List.length full in
  check_int "grouped count = tuple at a time" total (Exec.count g plan);
  (* The outputs of each SCAN run (source vertex), in order. *)
  let per_run =
    List.fold_left
      (fun acc t -> match acc with (u, n) :: rest when u = t.(0) -> (u, n + 1) :: rest | _ -> (t.(0), 1) :: acc)
      [] full
    |> List.rev |> Array.of_list
  in
  check_bool "several groups of runs" true (Array.length per_run > 2 * 64);
  let before k = Array.fold_left ( + ) 0 (Array.sub (Array.map snd per_run) 0 k) in
  let inside k = before k + max 1 (snd per_run.(k) / 2) in
  List.iter
    (fun cap ->
      let c, o = Exec.run_gov ~budget:(Governor.budget ~max_output:cap ()) g plan in
      check_int (Printf.sprintf "cap %d: outputs" cap) (min cap total) c.Counters.output;
      check_bool
        (Printf.sprintf "cap %d: outcome" cap)
        true
        (if cap <= total then is_truncated Governor.Output_limit o else o = Governor.Completed))
    ([ 1; total - 1; total; total + 1 ] @ List.map inside [ 1; 2; 5; 40; 63; 64; 65; 130 ])

(* An intermediate cap trips inside a group: the overshoot stays within
   one check cadence, as one tick per tuple puts it, counted at the root
   or enumerated, and the rows handed on before the trip are the first
   rows of the tuple-at-a-time run. *)
let test_group_intermediate_cap () =
  let g = graph () in
  let plan = q5_plan () in
  let full, _, _ = rows_of ~rewrite:tuple_fed g plan in
  List.iter
    (fun cap ->
      let budget = Governor.budget ~max_intermediate:cap () in
      let within what (c : Counters.t) o =
        check_bool (Printf.sprintf "cap %d %s: truncated" cap what) true
          (is_truncated Governor.Intermediate_limit o);
        check_bool
          (Printf.sprintf "cap %d %s: overshoot %d within one cadence" cap what (c.Counters.produced - cap))
          true
          (c.Counters.produced >= cap && c.Counters.produced <= cap + Governor.cadence)
      in
      let c, o = Exec.run_gov ~budget g plan in
      within "counted" c o;
      let rows, c, o = rows_of ~budget g plan in
      within "enumerated" c o;
      check_int (Printf.sprintf "cap %d: rows = outputs" cap) c.Counters.output (List.length rows);
      check_bool (Printf.sprintf "cap %d: rows a prefix of the full run" cap) true (is_prefix rows full);
      let _, c, o = rows_of ~rewrite:tuple_fed ~budget g plan in
      within "tuple at a time" c o)
    [ 300; 1_000; 5_000 ]

(* A fuel check (a seeded fault) or a deadline trips in the middle of a
   group: the rows handed on before it are exactly the first rows of the
   tuple-at-a-time run, and the counted output is their number; a run the
   fault misses is the whole run. *)
let test_group_trip () =
  let g = graph () in
  let plan = q5_plan () in
  let full, _, _ = rows_of ~rewrite:tuple_fed g plan in
  let total = List.length full in
  let rng = Rng.create fault_seed in
  let faults = List.init 8 (fun _ -> 1 + Rng.int rng (4 * total)) in
  List.iter
    (fun at ->
      let fault = { Governor.at_tuple = at; operator = "group" } in
      let rows, c, o = rows_of ~fault g plan in
      check_int (Printf.sprintf "fault %d: rows = outputs" at) c.Counters.output (List.length rows);
      (match o with
      | Governor.Failed _ ->
          check_bool (Printf.sprintf "fault %d: rows a prefix of the full run" at) true (is_prefix rows full)
      | Governor.Completed -> check_bool (Printf.sprintf "fault %d missed: the whole run" at) true (rows = full)
      | Governor.Truncated _ -> Alcotest.fail "no budget: Truncated impossible"))
    faults;
  let rows, c, o = rows_of ~budget:(Governor.budget ~deadline_s:0.0 ()) g plan in
  check_bool "deadline: truncated" true (is_truncated Governor.Deadline o);
  check_int "deadline: rows = outputs" c.Counters.output (List.length rows);
  check_bool "deadline: rows a prefix of the full run" true (is_prefix rows full)

let test_fault_seed_sweep () =
  (* GFQ_FAULT_SEED sweep: wherever the seeded fault lands, a Failed run
     reports only rows the clean run reports and no duplicates, and a run
     the fault misses entirely (at_tuple past the produced total) is exact.
     No budget is set, so Truncated is impossible. Sequential and 2-domain
     parallel both hold the guarantee. *)
  let g = graph () in
  let plan = triangle_plan () in
  let full = Hashtbl.create 4096 in
  let full_n = ref 0 in
  let _, o =
    Exec.run_gov
      ~sink:(fun t ->
        Hashtbl.replace full (key t) ();
        incr full_n)
      g plan
  in
  check_bool "reference completed" true (o = Governor.Completed);
  for s = fault_seed to fault_seed + 9 do
    let rng = Rng.create s in
    let at = 1 + Rng.int rng 6_000 in
    let fault = { Governor.at_tuple = at; operator = "sweep" } in
    let tag what = Printf.sprintf "seed %d: %s" s what in
    let seen = ref [] in
    let _, o = Exec.run_gov ~fault ~sink:(fun t -> seen := key t :: !seen) g plan in
    List.iter (fun k -> check_bool (tag "seq subset of full") true (Hashtbl.mem full k)) !seen;
    let dedup = Hashtbl.create 64 in
    List.iter (fun k -> Hashtbl.replace dedup k ()) !seen;
    check_int (tag "seq no duplicates") (List.length !seen) (Hashtbl.length dedup);
    (match o with
    | Governor.Completed -> check_int (tag "untripped run exact") !full_n (List.length !seen)
    | Governor.Failed _ -> check_bool (tag "failed run emits no more than full") true
        (List.length !seen <= !full_n)
    | Governor.Truncated _ -> Alcotest.fail (tag "no budget: Truncated impossible"));
    let seen_p = ref [] in
    let r = Parallel.run ~domains:2 ~fault ~sink:(fun t -> seen_p := key t :: !seen_p) g plan in
    List.iter
      (fun k -> check_bool (tag "par subset of full") true (Hashtbl.mem full k))
      !seen_p;
    match r.Parallel.outcome with
    | Governor.Completed -> check_int (tag "par untripped exact") !full_n (List.length !seen_p)
    | Governor.Failed _ -> ()
    | Governor.Truncated _ -> Alcotest.fail (tag "par: no budget: Truncated impossible")
  done

let test_sink_exception_releases_mutex () =
  (* A sink that throws mid-run must not leave the sink mutex locked: the
     other domain would deadlock on its next emit and the run never return.
     Every path runs the same governed loop, so the sequential executor and
     the Db facade report the same fault as a structured failure too, with
     the trace closed out and the counters flushed. *)
  let g = graph () in
  let plan = triangle_plan () in
  let calls = ref 0 in
  let sink _ =
    incr calls;
    if !calls = 50 then failwith "sink blew up"
  in
  let expect_failed what operator outcome =
    match outcome with
    | Governor.Failed e -> check_string (what ^ ": failing operator") operator e.Governor.operator
    | o -> Alcotest.failf "%s: expected the sink failure to surface, got %s" what
             (Governor.outcome_to_string o)
  in
  let r = Parallel.run ~domains:2 ~sink g plan in
  expect_failed "parallel" "worker" r.Parallel.outcome;
  check_bool "sink was reached" true (!calls >= 50);
  let r2 = Parallel.run ~domains:2 ~sink:(fun _ -> ()) g plan in
  check_bool "rerun completes" true (r2.Parallel.outcome = Governor.Completed);
  calls := 0;
  let tr = Trace.create () in
  let c, o = Exec.run_gov ~trace:tr ~sink g plan in
  expect_failed "sequential" "execute" o;
  check_int "sequential stopped at the failing tuple" 50 c.Counters.output;
  check_bool "execute span closed" true
    (List.exists (fun sp -> sp.Trace.name = "execute") (Trace.spans tr));
  calls := 0;
  let db = Graphflow.Db.create g in
  let _, o = Graphflow.Db.run_gov ~domains:1 ~sink db (Graphflow.Patterns.q 1) in
  expect_failed "Db.run_gov" "execute" o;
  check_int "Db.run_gov reached the sink" 50 !calls

let suite =
  [
    ( "governor",
      [
        Alcotest.test_case "unlimited completes" `Quick test_unlimited_completes;
        Alcotest.test_case "output cap exact" `Quick test_output_cap_exact;
        Alcotest.test_case "truncated prefix (seq)" `Quick test_truncated_prefix_sequential;
        Alcotest.test_case "truncated subset (par)" `Quick test_truncated_subset_parallel;
        Alcotest.test_case "intermediate cap" `Quick test_intermediate_cap;
        Alcotest.test_case "memory cap" `Quick test_memory_cap;
        Alcotest.test_case "deadline promptness" `Quick test_deadline_promptness;
        Alcotest.test_case "cancel from another domain" `Quick test_cancel_from_another_domain;
        Alcotest.test_case "fault mid-extend" `Quick test_fault_mid_extend;
        Alcotest.test_case "fault mid-hash-build" `Quick test_fault_mid_hash_build;
        Alcotest.test_case "tick granularity mid-intersection" `Quick test_tick_granularity;
        Alcotest.test_case "segmented intersection correct" `Quick
          test_segmented_intersection;
        Alcotest.test_case "claim and fuel clamps" `Quick test_claim_clamp;
        Alcotest.test_case "count-only root output cap" `Quick test_count_root_output_cap;
        Alcotest.test_case "count-only root deadline" `Quick test_count_root_deadline;
        Alcotest.test_case "fault seed sweep" `Quick test_fault_seed_sweep;
        Alcotest.test_case "sink exception frees mutex" `Quick test_sink_exception_releases_mutex;
        Alcotest.test_case "deadline within one chunk of a run" `Quick
          test_run_deadline_within_chunk;
        Alcotest.test_case "count-only cap across chunks" `Quick test_run_count_cap_across_chunks;
        Alcotest.test_case "count-only cap inside a group" `Quick test_group_count_cap;
        Alcotest.test_case "intermediate cap inside a group" `Quick test_group_intermediate_cap;
        Alcotest.test_case "trip inside a group" `Quick test_group_trip;
      ] );
  ]
