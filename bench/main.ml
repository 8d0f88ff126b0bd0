(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 8 and Appendices B-D) on the synthetic dataset
   analogues, plus the ablations DESIGN.md calls out.

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only table3,figure7
     dune exec bench/main.exe -- --list
     GF_BENCH_SCALE=0.1 dune exec bench/main.exe

   Output convention per experiment: the paper's rows with our measured
   values; absolute numbers differ from the paper (different hardware,
   dataset scale), the *shape* is what EXPERIMENTS.md tracks. *)

module Gf = Graphflow
open Bench_data

(* ------------------------------------------------------------------ *)
(* Table 3: intersection cache on/off across diamond-X WCO plans.      *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table 3: intersection cache utility (diamond-X, amazon)";
  let g = dataset Gf.Generators.Amazon in
  let cat = catalog g in
  let q = Gf.Patterns.diamond_x in
  let orders = Gf.Planner.all_wco_orders cat q |> List.map fst in
  let rows =
    List.map
      (fun o ->
        let plan = Gf.Plan.wco q o in
        let t_on, c_on = time_warm (fun () -> fst (Gf.Exec.run_gov ~cache:true g plan)) in
        let t_off, _ = time_warm (fun () -> fst (Gf.Exec.run_gov ~cache:false g plan)) in
        (o, t_on, t_off, c_on.Gf.Counters.cache_hits))
      orders
  in
  let rows = List.sort (fun (_, a, _, _) (_, b, _, _) -> compare a b) rows in
  Printf.printf "%-14s %10s %10s %12s\n" "QVO" "cache on" "cache off" "cache hits";
  List.iter
    (fun (o, ton, toff, hits) ->
      Printf.printf "%-14s %9.3fs %9.3fs %12s\n" (order_name o) ton toff (fmt_count hits))
    rows;
  let used = List.filter (fun (_, _, _, h) -> h > 0) rows in
  let best_ratio =
    List.fold_left (fun acc (_, ton, toff, _) -> Float.max acc (toff /. ton)) 1.0 used
  in
  Printf.printf "plans using the cache: %d of %d; best speedup from caching: %.1fx\n"
    (List.length used) (List.length rows) best_ratio

(* ------------------------------------------------------------------ *)
(* Table 4: adjacency list direction effects (asymmetric triangle).    *)
(* ------------------------------------------------------------------ *)

let table4 () =
  header "Table 4: QVO direction effects (asymmetric triangle)";
  let q = Gf.Patterns.asymmetric_triangle in
  List.iter
    (fun (label, name) ->
      let g = dataset name in
      subheader label;
      Printf.printf "%-10s %10s %12s %14s\n" "QVO" "time" "part. m." "i-cost";
      let rows =
        List.map
          (fun o ->
            let plan = Gf.Plan.wco q o in
            let t, c = time_warm (fun () -> fst (Gf.Exec.run_gov g plan)) in
            (o, t, c))
          (List.map fst (Gf.Planner.all_wco_orders (catalog g) q))
      in
      List.iter
        (fun (o, t, c) ->
          Printf.printf "%-10s %9.3fs %12s %14s\n" (order_name o) t
            (fmt_count (Gf.Counters.intermediate c))
            (fmt_count c.Gf.Counters.icost))
        (List.sort (fun (_, a, _) (_, b, _) -> compare a b) rows))
    [ ("berkstan", Gf.Generators.Berkstan); ("livejournal", Gf.Generators.Livejournal) ]

(* ------------------------------------------------------------------ *)
(* Table 5: intermediate-result effects (tailed triangle, cache off).  *)
(* ------------------------------------------------------------------ *)

let table5 () =
  header "Table 5: EDGE-TRIANGLE vs EDGE-2PATH (tailed triangle, cache off)";
  let q = Gf.Patterns.tailed_triangle in
  List.iter
    (fun (label, name) ->
      let g = dataset name in
      subheader label;
      Printf.printf "%-12s %-14s %10s %12s %14s\n" "QVO" "family" "time" "part. m." "i-cost";
      let rows =
        List.map
          (fun o ->
            let plan = Gf.Plan.wco q o in
            let t, c = time_warm (fun () -> fst (Gf.Exec.run_gov ~cache:false g plan)) in
            (* EDGE-TRIANGLE plans close the triangle (vertex a3 = 2) before
               matching the tail (a4 = 3). *)
            let fam =
              let pos v =
                let p = ref (-1) in
                Array.iteri (fun i x -> if x = v then p := i) o;
                !p
              in
              if pos 2 < pos 3 then "EDGE-TRIANGLE" else "EDGE-2PATH"
            in
            (o, fam, t, c))
          (List.map fst (Gf.Planner.all_wco_orders (catalog g) q))
      in
      List.iter
        (fun (o, fam, t, c) ->
          Printf.printf "%-12s %-14s %9.3fs %12s %14s\n" (order_name o) fam t
            (fmt_count (Gf.Counters.intermediate c))
            (fmt_count c.Gf.Counters.icost))
        (List.sort (fun (_, _, a, _) (_, _, b, _) -> compare a b) rows))
    [ ("amazon", Gf.Generators.Amazon); ("epinions", Gf.Generators.Epinions) ]

(* ------------------------------------------------------------------ *)
(* Table 6: intersection cache hits (symmetric diamond-X).             *)
(* ------------------------------------------------------------------ *)

let table6 () =
  header "Table 6: cache-utilization QVO groups (symmetric diamond-X)";
  let q = Gf.Patterns.symmetric_diamond_x in
  List.iter
    (fun (label, name) ->
      let g = dataset name in
      subheader label;
      Printf.printf "%-12s %10s %12s %14s %12s\n" "QVO" "time" "part. m." "i-cost" "cache hits";
      List.iter
        (fun o ->
          let plan = Gf.Plan.wco q o in
          let t, c = time_warm (fun () -> fst (Gf.Exec.run_gov g plan)) in
          Printf.printf "%-12s %9.3fs %12s %14s %12s\n" (order_name o) t
            (fmt_count (Gf.Counters.intermediate c))
            (fmt_count c.Gf.Counters.icost)
            (fmt_count c.Gf.Counters.cache_hits))
        [ [| 1; 2; 0; 3 |] (* a2a3a1a4: cache-friendly group *); [| 0; 1; 2; 3 |] (* a1a2a3a4 *) ])
    [ ("amazon", Gf.Generators.Amazon); ("epinions", Gf.Generators.Epinions) ]

(* ------------------------------------------------------------------ *)
(* Table 7: a sample of the subgraph catalogue.                        *)
(* ------------------------------------------------------------------ *)

let table7 () =
  header "Table 7: subgraph catalogue sample (epinions, 2 vertex / 2 edge labels)";
  let g =
    Gf.Graph.relabel (dataset Gf.Generators.Epinions) (Gf.Rng.create 4000) ~num_vlabels:2
      ~num_elabels:2
  in
  let cat = Gf.Catalog.create ~z:500 g in
  let show desc qk new_vertex =
    match Gf.Catalog.entry cat qk ~new_vertex with
    | None -> ()
    | Some e -> Format.printf "%-46s %a@." desc Gf.Catalog.pp_entry e
  in
  let q s = Gf.Db.parse_query s in
  show "(1:l0 -e0-> 2:l1 ; fwd(2); 3:l0)" (q "a:0, b:1, c:0, a->b@0, b->c@0") 2;
  show "(1:l0 -e0-> 2:l1 ; fwd(2); 3:l1)" (q "a:0, b:1, c:1, a->b@0, b->c@0") 2;
  show "(1:l0 -e0-> 2:l1 ; fwd(2)@e1; 3:l0)" (q "a:0, b:1, c:0, a->b@0, b->c@1") 2;
  show "(1:l0 -e0-> 2:l0 ; fwd(1), fwd(2); 3:l0)" (q "a:0, b:0, c:0, a->b@0, a->c@0, b->c@0") 2;
  show "(1:l0 -e0-> 2:l0 ; bwd(1), bwd(2); 3:l0)" (q "a:0, b:0, c:0, a->b@0, c->a@0, c->b@0") 2

(* ------------------------------------------------------------------ *)
(* Figure 7: plan spectra and the optimizer's pick.                    *)
(* ------------------------------------------------------------------ *)

let spectrum_datasets () =
  [
    ("amazon (unlabeled)", dataset_at (Gf.Generators.Amazon, spectrum_scale), 1);
    ("epinions (3 labels)", labeled (Gf.Generators.Epinions, spectrum_scale, 3), 3);
    ("google (5 labels)", labeled (Gf.Generators.Google, spectrum_scale, 5), 5);
  ]

let figure7 () =
  header "Figure 7: plan spectra; x = optimizer pick";
  let queries = [ 1; 2; 3; 4; 5; 6; 7; 8; 11; 12; 13 ] in
  let within_opt = ref 0 and total = ref 0 and within14 = ref 0 and within2 = ref 0 in
  let max_plan_time = ref 0.0 in
  List.iter
    (fun (dlabel, g, nl) ->
      let cat = catalog g in
      subheader dlabel;
      List.iter
        (fun i ->
          let q = if nl = 1 then Gf.Patterns.q i else labeled_query i nl in
          match time_once (fun () -> Gf.Planner.plan cat q) with
          | exception Gf.Planner.No_plan _ -> ()
          | plan_time, (picked, _) ->
              max_plan_time := Float.max !max_plan_time plan_time;
              let s = Gf.Spectrum.run ~per_subset_cap:4 ~family_cap:12 g q in
              let times = List.map (fun e -> e.Gf.Spectrum.seconds) s.Gf.Spectrum.entries in
              let tmin = List.fold_left Float.min infinity times in
              let tmax = List.fold_left Float.max 0.0 times in
              let tpick, _ = time_warm (fun () -> fst (Gf.Exec.run_gov g picked)) in
              let fam f =
                List.length (List.filter (fun e -> e.Gf.Spectrum.family = f) s.Gf.Spectrum.entries)
              in
              incr total;
              let ratio = tpick /. Float.max tmin 1e-6 in
              if ratio <= 1.05 then incr within_opt;
              if ratio <= 1.4 then incr within14;
              if ratio <= 2.0 then incr within2;
              Printf.printf
                "Q%-2d%s W(%d) B(%d) H(%d): spectrum %.4fs..%.4fs  pick %.4fs (%.2fx of best)\n%!"
                i
                (if nl > 1 then Printf.sprintf "_%d" nl else "")
                (fam Gf.Spectrum.Wco) (fam Gf.Spectrum.Bj) (fam Gf.Spectrum.Hybrid) tmin tmax
                tpick ratio)
        queries)
    (spectrum_datasets ());
  Printf.printf
    "\noptimizer pick: optimal (<=1.05x) in %d/%d spectra, within 1.4x in %d, within 2x in %d\n"
    !within_opt !total !within14 !within2;
  Printf.printf "max optimization time across all spectra: %.0fms (paper: 331ms, 1.4s for Q7_5)\n"
    (1000.0 *. !max_plan_time)

(* ------------------------------------------------------------------ *)
(* Figure 8: fixed vs adaptive plan spectra.                           *)
(* ------------------------------------------------------------------ *)

let figure8 () =
  header "Figure 8: adaptive QVO selection (fixed vs adaptive, per plan)";
  let datasets =
    [
      ("amazon", dataset_at (Gf.Generators.Amazon, spectrum_scale));
      ("epinions", dataset_at (Gf.Generators.Epinions, spectrum_scale));
      ("google", dataset_at (Gf.Generators.Google, spectrum_scale));
    ]
  in
  List.iter
    (fun (dlabel, g) ->
      let cat = catalog g in
      subheader dlabel;
      List.iter
        (fun i ->
          let q = Gf.Patterns.q i in
          let orders = Gf.Planner.all_wco_orders cat q |> List.map fst in
          let improvements = ref [] in
          List.iter
            (fun o ->
              let plan = Gf.Plan.wco q o in
              let tf, _ = time_warm (fun () -> fst (Gf.Exec.run_gov g plan)) in
              let ta, _ = time_warm (fun () -> Gf.Adaptive.run cat g q plan) in
              improvements := (tf, ta) :: !improvements)
            orders;
          let fixed = List.map fst !improvements and adap = List.map snd !improvements in
          let spread l = List.fold_left Float.max 0.0 l /. Float.max (List.fold_left Float.min infinity l) 1e-6 in
          let best_gain =
            List.fold_left (fun acc (f, a) -> Float.max acc (f /. Float.max a 1e-6)) 0.0 !improvements
          in
          Printf.printf
            "Q%-2d (%d plans): fixed %.4fs..%.4fs (spread %.1fx) | adaptive %.4fs..%.4fs (spread %.1fx) | best gain %.2fx\n"
            i (List.length orders)
            (List.fold_left Float.min infinity fixed) (List.fold_left Float.max 0.0 fixed) (spread fixed)
            (List.fold_left Float.min infinity adap) (List.fold_left Float.max 0.0 adap) (spread adap)
            best_gain)
        [ 2; 3; 4; 5; 6 ])
    datasets;
  (* Q10: adapt the E/I chain computing the diamond inside hybrid plans
     (each plan joins the diamond side with the triangle side on a4; the
     diamond side is a 2-deep E/I chain, which is what adapts). *)
  subheader "Q10 hybrid plans (amazon): diamond side adapted";
  let g = dataset_at (Gf.Generators.Amazon, spectrum_scale) in
  let cat = catalog g in
  let q = Gf.Patterns.q 10 in
  let triangle_side = Gf.Plan.wco q [| 3; 4; 5 |] in
  List.iter
    (fun diamond_order ->
      let plan = Gf.Plan.hash_join q triangle_side (Gf.Plan.wco q diamond_order) in
      assert (Gf.Adaptive.adaptable plan);
      let tf, _ = time_warm (fun () -> fst (Gf.Exec.run_gov g plan)) in
      let ta, _ = time_warm (fun () -> Gf.Adaptive.run cat g q plan) in
      Printf.printf "hybrid (diamond %s): fixed %.4fs adaptive %.4fs (%.2fx)\n"
        (order_name diamond_order) tf ta
        (tf /. Float.max ta 1e-6))
    [ [| 0; 1; 2; 3 |]; [| 1; 2; 0; 3 |]; [| 1; 2; 3; 0 |]; [| 2; 3; 1; 0 |]; [| 0; 2; 1; 3 |] ]

(* ------------------------------------------------------------------ *)
(* Figure 9: EmptyHeaded spectra vs Graphflow spectra.                 *)
(* ------------------------------------------------------------------ *)

let figure9 () =
  header "Figure 9: EH plan spectra (all bag-ordering rewrites of the min-width GHD)";
  let combos =
    [ (3, Gf.Generators.Amazon); (7, Gf.Generators.Epinions); (8, Gf.Generators.Amazon) ]
  in
  List.iter
    (fun (qi, dname) ->
      let g = dataset_at (dname, spectrum_scale) in
      let q = Gf.Patterns.q qi in
      let d = Gf.Ghd.min_width_decomposition q in
      Format.printf "Q%d on %s: GHD %a@." qi
        (Gf.Generators.dataset_name_to_string dname)
        Gf.Ghd.pp_decomposition d;
      (* Cartesian product of bag orderings, capped. *)
      let per_bag = Gf.Ghd.bag_orders q d |> Array.map (fun l -> List.filteri (fun i _ -> i < 6) l) in
      let rec combos_of i acc =
        if i = Array.length per_bag then [ List.rev acc ]
        else List.concat_map (fun o -> combos_of (i + 1) (o :: acc)) per_bag.(i)
      in
      let all = combos_of 0 [] in
      let times =
        List.map
          (fun orders ->
            let p = Gf.Ghd.plan_with_orders q d (Array.of_list orders) in
            fst (time_warm (fun () -> fst (Gf.Exec.run_gov g p))))
          (List.filteri (fun i _ -> i < 24) all)
      in
      let gf = Gf.Spectrum.run ~per_subset_cap:3 ~family_cap:8 g q in
      let gf_times = List.map (fun e -> e.Gf.Spectrum.seconds) gf.Gf.Spectrum.entries in
      Printf.printf "EH(%d plans): %.4fs .. %.4fs | GF(%d plans): %.4fs .. %.4fs\n"
        (List.length times)
        (List.fold_left Float.min infinity times)
        (List.fold_left Float.max 0.0 times)
        (List.length gf_times)
        (List.fold_left Float.min infinity gf_times)
        (List.fold_left Float.max 0.0 gf_times))
    combos

(* ------------------------------------------------------------------ *)
(* Table 9: Graphflow vs EH-g vs EH-b.                                 *)
(* ------------------------------------------------------------------ *)

let table9 () =
  header "Table 9: Graphflow (GF) vs EmptyHeaded good/bad orderings (EH-g / EH-b)";
  let queries = [ 1; 3; 5; 7; 8; 9; 12; 13 ] in
  let datasets =
    [
      ("amazon", Gf.Generators.Amazon);
      ("google", Gf.Generators.Google);
      ("epinions", Gf.Generators.Epinions);
    ]
  in
  List.iter
    (fun (dlabel, dname) ->
      subheader dlabel;
      Printf.printf "%-8s %12s %12s %12s %12s\n" "query" "EH-b" "EH-g" "GF" "EH-b/GF";
      List.iter
        (fun qi ->
          List.iter
            (fun nl ->
              let g = if nl = 1 then dataset_at (dname, spectrum_scale) else labeled (dname, spectrum_scale, nl) in
              let cat = catalog g in
              let q = if nl = 1 then Gf.Patterns.q qi else labeled_query qi nl in
              let name = Printf.sprintf "Q%d%s" qi (if nl > 1 then Printf.sprintf "_%d" nl else "") in
              try
                let d = Gf.Ghd.min_width_decomposition q in
                let gf_plan, _ = Gf.Planner.plan cat q in
                let t_gf, _ = time_once (fun () -> fst (Gf.Exec.run_gov g gf_plan)) in
                let t_ehb, _ =
                  time_once (fun () ->
                      fst (Gf.Exec.run_gov g (Gf.Ghd.to_plan cat q d Gf.Ghd.Worst_estimated)))
                in
                let t_ehg, _ =
                  time_once (fun () ->
                      fst (Gf.Exec.run_gov g (Gf.Ghd.to_plan cat q d Gf.Ghd.Best_estimated)))
                in
                Printf.printf "%-8s %11.3fs %11.3fs %11.3fs %11.1fx\n" name t_ehb t_ehg t_gf
                  (t_ehb /. Float.max t_gf 1e-6)
              with e -> Printf.printf "%-8s skipped (%s)\n" name (Printexc.to_string e))
            [ 1; 2 ])
        queries)
    datasets

(* ------------------------------------------------------------------ *)
(* Figure 10: the seamless hybrid plan for Q9.                         *)
(* ------------------------------------------------------------------ *)

let figure10 () =
  header "Figure 10: the optimizer's Q9 plan (intersections after a binary join)";
  let g = dataset_at (Gf.Generators.Amazon, spectrum_scale) in
  let cat = catalog g in
  let q = Gf.Patterns.q 9 in
  let plan, cost = Gf.Planner.plan cat q in
  Format.printf "%a@.estimated cost %.0f@." Gf.Plan.pp plan cost;
  let has_join = ref false and extend_after_join = ref false in
  let rec walk above_join = function
    | Gf.Plan.Scan _ -> ()
    | Gf.Plan.Extend { child; _ } ->
        if above_join then extend_after_join := true;
        walk above_join child
    | Gf.Plan.Hash_join { build; probe; _ } ->
        has_join := true;
        walk false build;
        walk false probe
  in
  let rec walk_root = function
    | Gf.Plan.Extend { child; _ } ->
        (match child with
        | Gf.Plan.Hash_join _ -> extend_after_join := true
        | _ -> ());
        walk_root child
    | Gf.Plan.Hash_join { build; probe; _ } ->
        has_join := true;
        walk false build;
        walk false probe
    | Gf.Plan.Scan _ -> ()
  in
  walk_root plan;
  let t, c = time_once (fun () -> fst (Gf.Exec.run_gov g plan)) in
  Printf.printf "matches %s in %.3fs; plan %s a join%s\n"
    (fmt_count c.Gf.Counters.output) t
    (if !has_join then "contains" else "does not contain")
    (if !extend_after_join then " with an E/I above it (not expressible as a GHD)" else "")

(* ------------------------------------------------------------------ *)
(* Figure 11: parallel scalability (hardware-gated: 1 physical core).  *)
(* ------------------------------------------------------------------ *)

(* max/min of a per-domain quantity: 1.00 is a perfectly even split *)
let spread = function
  | [] -> 1.0
  | x :: rest ->
      let mx = List.fold_left max x rest and mn = List.fold_left min x rest in
      if mn <= 0. then Float.infinity else mx /. mn

let figure11 () =
  header "Figure 11: morsel-driven parallel execution (NOTE: container has 1 physical core)";
  let runs =
    [
      ("Q1 twitter", dataset_at (Gf.Generators.Twitter, scale *. 0.5), Gf.Patterns.q 1);
      ("Q1 livejournal", dataset_at (Gf.Generators.Livejournal, scale *. 0.5), Gf.Patterns.q 1);
      ("Q2 livejournal", dataset_at (Gf.Generators.Livejournal, scale *. 0.5), Gf.Patterns.q 2);
      ("Q14 google", dataset_at (Gf.Generators.Google, scale *. 0.5), Gf.Patterns.q 14);
    ]
  in
  (* Best of 3 interleaved pairs, both counted at the root. *)
  let best_pair f g =
    List.fold_left
      (fun (a, b) _ -> (min a (fst (time_once f)), min b (fst (time_once g))))
      (Float.infinity, Float.infinity) [ 1; 2; 3 ]
  in
  List.iter
    (fun (label, g, q) ->
      let cat = catalog g in
      let order, _ = Gf.Planner.best_wco_order cat q in
      let plan = Gf.Plan.wco q order in
      let seq, one =
        best_pair (fun () -> Gf.Exec.run_gov g plan) (fun () -> Gf.Parallel.run ~domains:1 g plan)
      in
      Printf.printf "%-16s 1d/seq %.2fx" label (one /. seq);
      List.iter
        (fun d ->
          let t, r = time_once (fun () -> Gf.Parallel.run ~domains:d g plan) in
          (* Spreads over the domains that ran a morsel. *)
          let active =
            List.filter (fun (c : Gf.Counters.t) -> c.morsels > 0) (Array.to_list r.per_domain)
          in
          let over f = spread (List.map f active) in
          Printf.printf "  %dd: %.3fs (%d active, %d morsels, out %.2f, imb %.2f)" d t
            (List.length active) r.counters.Gf.Counters.morsels
            (over (fun c -> float_of_int c.Gf.Counters.output))
            (over (fun c -> c.Gf.Counters.busy_s)))
        [ 1; 2; 4 ];
      print_newline ())
    runs;
  print_endline
    "(1d/seq: one domain against Exec.run_gov; out and imb: per-domain output and busy time,";
  print_endline
    " max/min over the domains that ran a morsel. On one physical core a speedup cannot show;";
  print_endline " the split does — see EXPERIMENTS.md)"

(* ------------------------------------------------------------------ *)
(* Governor: budget-check overhead (A/B) and deadline promptness.      *)
(* ------------------------------------------------------------------ *)

let governor () =
  header "Governor: check overhead and deadline promptness";
  (* A/B: unlimited governor (caps unset, checks skip the clock) vs a
     generous budget that never trips but exercises the full check path
     (clock read, cap compares, atomic produced-count flushes). No output
     cap: per-output atomic claims are the cost of the cap feature itself
     (identical to the old limit implementation), not of governor checks.
     Same plan, warm caches, best of 9 runs. *)
  let g = dataset_at (Gf.Generators.Twitter, scale *. 0.5) in
  let q = Gf.Patterns.q 1 in
  let order, _ = Gf.Planner.best_wco_order (catalog g) q in
  let plan = Gf.Plan.wco q order in
  let best f =
    ignore (f ());
    let ts = List.init 9 (fun _ -> fst (time_once f)) in
    List.fold_left min infinity ts
  in
  let generous =
    Gf.Governor.budget ~deadline_s:3600. ~max_intermediate:(1 lsl 50)
      ~max_bytes:(1 lsl 50) ()
  in
  let t_plain = best (fun () -> Gf.Exec.run_gov g plan) in
  let t_gov = best (fun () -> Gf.Exec.run_gov ~budget:generous g plan) in
  let c_gov, _ = Gf.Exec.run_gov ~budget:generous g plan in
  Printf.printf
    "Q1 twitter sequential: unlimited %.4fs, full budget %.4fs (overhead %+.1f%%, %d checks)\n"
    t_plain t_gov
    ((t_gov /. t_plain -. 1.) *. 100.)
    c_gov.Gf.Counters.gov_checks;
  let tp_plain = best (fun () -> Gf.Parallel.run ~domains:4 g plan) in
  let tp_gov = best (fun () -> Gf.Parallel.run ~domains:4 ~budget:generous g plan) in
  Printf.printf "Q1 twitter 4 domains:  unlimited %.4fs, full budget %.4fs (overhead %+.1f%%)\n"
    tp_plain tp_gov
    ((tp_gov /. tp_plain -. 1.) *. 100.);
  (* Deadline promptness: a clique-heavy graph (high clustering + planted
     8-cliques) where the acyclic 4-clique Q5 runs far past any deadline;
     every domain must observe the trip and return well under 3x the
     deadline, counters intact. *)
  subheader "50 ms deadline, clique-heavy graph (Q5 = acyclic 4-clique)";
  let rng = Gf.Rng.create 42 in
  let n = max 2_000 (int_of_float (80_000. *. scale)) in
  let gc =
    Gf.Generators.plant_cliques rng
      (Gf.Generators.holme_kim rng ~n ~m_per:8 ~p_triad:0.9 ~recip:0.3)
      ~count:(n / 50) ~size:8
  in
  let q5 = Gf.Patterns.q 5 in
  let plan5 = Gf.Plan.wco q5 (Array.init (Gf.Query.num_vertices q5) Fun.id) in
  let deadline = Gf.Governor.budget ~deadline_s:0.05 () in
  List.iter
    (fun d ->
      let t, r =
        time_once (fun () -> Gf.Parallel.run ~domains:d ~budget:deadline gc plan5)
      in
      Printf.printf "%d domain(s): returned in %3.0f ms, outcome %s, %s tuples produced\n" d
        (t *. 1000.)
        (Gf.Governor.outcome_to_string r.Gf.Parallel.outcome)
        (fmt_count r.counters.Gf.Counters.produced))
    [ 1; 4 ];
  (* Deterministic fault injection: the same seed always fails at the same
     produced-tuple count. *)
  subheader "seeded fault injection";
  let frng = Gf.Rng.create 7 in
  let at = 1 + Gf.Rng.int frng 100_000 in
  let fc, fo =
    Gf.Exec.run_gov ~fault:{ Gf.Governor.at_tuple = at; operator = "extend" } g plan
  in
  Printf.printf "fault scheduled at tuple %d -> outcome %s, %s tuples produced\n" at
    (Gf.Governor.outcome_to_string fo)
    (fmt_count fc.Gf.Counters.produced)

(* ------------------------------------------------------------------ *)
(* Resilience: service-layer overhead over a direct governed run.      *)
(* ------------------------------------------------------------------ *)

let resilience () =
  header "Resilience: service submit vs a direct governed run (Q1, twitter)";
  (* Per-request cost of the full service path — admission, breaker
     verdict, a slot taken and handed back, ladder bookkeeping and the
     flight-recorder record — over the same query run directly through
     [Db.run_gov]. The request runs on the submitting thread, so no thread
     handoff is in the price. Warm caches; the two paths alternate, so
     host drift hits both alike, and the overhead is the median of the
     per-pair differences. It should stay in the noise for any
     non-trivial query. *)
  let g = dataset_at (Gf.Generators.Twitter, scale *. 0.5) in
  let db = Gf.Db.create g in
  let q = Gf.Patterns.q 1 in
  let svc = Gf_server.Service.create db in
  let req = Gf_server.Service.request q in
  let direct () = Gf.Db.run_gov db q and service () = Gf_server.Service.submit svc req in
  ignore (direct ());
  ignore (service ());
  let pairs = 201 in
  let t_direct = Array.make pairs 0. and t_service = Array.make pairs 0. in
  for i = 0 to pairs - 1 do
    t_direct.(i) <- fst (time_once direct);
    t_service.(i) <- fst (time_once service)
  done;
  Gf_server.Service.drain svc;
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let gap = median (Array.init pairs (fun i -> t_service.(i) -. t_direct.(i))) in
  Printf.printf
    "Q1 twitter: direct %.4fs, via service %.4fs (medians of %d alternating pairs; overhead \
     %+.1f%%, %+.1f us/request)\n"
    (median t_direct) (median t_service) pairs
    (gap /. median t_direct *. 100.)
    (gap *. 1e6)

(* ------------------------------------------------------------------ *)
(* Observability: per-operator profiling overhead + EXPLAIN ANALYZE.   *)
(* ------------------------------------------------------------------ *)

let observability () =
  header "Observability: per-operator accounting cost (Q1, twitter)";
  (* Every run counts per operator, so there is no counts-off build left to
     compare against. Three runs of one plan, warm caches, best of 9:
     - off: enumerate into a sink, nobody reads the rows;
     - counts only: what a plan-cache feedback run does — no sink, no
       profile, so the root counts instead of enumerating, and the rows are
       joined against the estimates afterwards;
     - timed: a profile attached (EXPLAIN ANALYZE), two clock reads per
       tuple per wrapped operator; a timed run enumerates. *)
  let g = dataset_at (Gf.Generators.Twitter, scale *. 0.5) in
  let q = Gf.Patterns.q 1 in
  let cat = catalog g in
  let order, _ = Gf.Planner.best_wco_order cat q in
  let plan = Gf.Plan.wco q order in
  let ests = Gf.Explain.estimates (Gf.Cost_model.create cat q) plan in
  let best f =
    ignore (f ());
    let ts = List.init 9 (fun _ -> fst (time_once f)) in
    List.fold_left min infinity ts
  in
  let t_off = best (fun () -> Gf.Exec.run_gov ~sink:ignore g plan) in
  let t_counts =
    best (fun () ->
        let _, counts, _ = Gf.Exec.run_rows g plan in
        Gf.Explain.rows ests counts None)
  in
  let t_timed = best (fun () -> Gf.Exec.run_rows ~prof:(Gf.Profile.create plan) g plan) in
  Printf.printf
    "Q1 twitter sequential: off %.4fs, counts only (feedback) %.4fs (%+.1f%%), timed %.4fs \
     (%+.1f%%)\n"
    t_off t_counts
    ((t_counts /. t_off -. 1.) *. 100.)
    t_timed
    ((t_timed /. t_off -. 1.) *. 100.);
  let tp_off = best (fun () -> Gf.Parallel.run ~domains:4 ~sink:ignore g plan) in
  let tp_counts = best (fun () -> Gf.Parallel.run ~domains:4 g plan) in
  let tp_timed =
    best (fun () -> Gf.Parallel.run ~domains:4 ~prof:(Gf.Profile.create plan) g plan)
  in
  Printf.printf
    "Q1 twitter 4 domains:  off %.4fs, counts only (feedback) %.4fs (%+.1f%%), timed %.4fs \
     (%+.1f%%)\n"
    tp_off tp_counts
    ((tp_counts /. tp_off -. 1.) *. 100.)
    tp_timed
    ((tp_timed /. tp_off -. 1.) *. 100.);
  (* The join against the cost model. *)
  subheader "EXPLAIN ANALYZE (sequential run)";
  let prof = Gf.Profile.create plan in
  let _, counts, _ = Gf.Exec.run_rows ~prof g plan in
  print_string (Gf.Explain.to_string (Gf.Explain.rows ests counts (Some prof)))

let tracing () =
  header "Tracing: span-recording overhead and export (Q1, twitter)";
  (* A/B: untraced vs traced [run_gov]. The untraced path is one [option]
     branch per phase boundary (never per tuple), so "off" must sit within
     noise of the pre-tracing build. Traced runs implicitly profile (the
     per-operator summary track needs self-times), so the honest comparison
     for the tracing increment alone is traced vs profiled-untraced. Best
     of 9, warm caches. The untraced runs enumerate into a sink, as the
     traced ones do. *)
  let g = dataset_at (Gf.Generators.Twitter, scale *. 0.5) in
  let q = Gf.Patterns.q 1 in
  let cat = catalog g in
  let order, _ = Gf.Planner.best_wco_order cat q in
  let plan = Gf.Plan.wco q order in
  let best f =
    ignore (f ());
    let ts = List.init 9 (fun _ -> fst (time_once f)) in
    List.fold_left min infinity ts
  in
  let t_off = best (fun () -> Gf.Exec.run_gov ~sink:ignore g plan) in
  let t_prof = best (fun () -> Gf.Exec.run_gov ~prof:(Gf.Profile.create plan) g plan) in
  let t_on = best (fun () -> Gf.Exec.run_gov ~trace:(Gf.Trace.create ()) g plan) in
  Printf.printf
    "Q1 twitter sequential: untraced %.4fs, profiled %.4fs, traced %.4fs (traced vs \
     untraced %+.1f%%, vs profiled %+.1f%%)\n"
    t_off t_prof t_on
    ((t_on /. t_off -. 1.) *. 100.)
    ((t_on /. t_prof -. 1.) *. 100.);
  let tp_off = best (fun () -> Gf.Parallel.run ~domains:4 ~sink:ignore g plan) in
  let tp_on =
    best (fun () -> Gf.Parallel.run ~domains:4 ~trace:(Gf.Trace.create ()) g plan)
  in
  Printf.printf "Q1 twitter 4 domains:  untraced %.4fs, traced %.4fs (%+.1f%%)\n" tp_off
    tp_on
    ((tp_on /. tp_off -. 1.) *. 100.);
  (* What a traced parallel run records and exports. *)
  let tr = Gf.Trace.create () in
  let (_ : Gf.Parallel.report) = Gf.Parallel.run ~domains:4 ~trace:tr g plan in
  let json = Gf.Trace.to_chrome_json tr in
  Printf.printf
    "traced 4-domain run: %d spans (%d dropped), Chrome JSON %d bytes, %d B/E events\n"
    (List.length (Gf.Trace.spans tr))
    (Gf.Trace.dropped tr) (String.length json)
    (List.length (Gf.Trace.chrome_events tr))

let wire_obs () =
  header "Wire observability: span export/graft roundtrip and exposition render";
  (* The cross-process trace path a distributed query pays: the worker
     prints its span tree as the JSON array of its shard reply
     ([export_spans]), the coordinator parses it back and grafts it under a
     pid-tagged track ([graft]) and renders one Chrome trace.
     Measured on a real traced run so span counts and name/arg shapes are
     representative, best of 9, warm caches. *)
  let g = dataset_at (Gf.Generators.Twitter, scale *. 0.5) in
  let q = Gf.Patterns.q 1 in
  let cat = catalog g in
  let order, _ = Gf.Planner.best_wco_order cat q in
  let plan = Gf.Plan.wco q order in
  let tr = Gf.Trace.create () in
  let (_ : Gf.Parallel.report) = Gf.Parallel.run ~domains:4 ~trace:tr g plan in
  let best f =
    ignore (f ());
    let ts = List.init 9 (fun _ -> fst (time_once f)) in
    List.fold_left min infinity ts
  in
  let export () = Gf_util.Json.to_string (Gf.Trace.export_spans tr) in
  let payload = export () in
  let t_export = best export in
  Printf.printf "export_spans: %d spans -> %d bytes in %.6fs\n"
    (List.length (Gf.Trace.spans tr))
    (String.length payload) t_export;
  let graft_once () =
    let dst = Gf.Trace.create () in
    (match Gf_util.Json.parse payload with
    | Ok spans -> Gf.Trace.graft dst ~pid:4242 ~pname:"w0 (bench)" ~skew_us:1500 spans
    | Error e -> failwith ("span payload does not parse: " ^ e));
    dst
  in
  let t_graft = best (fun () -> graft_once ()) in
  let stitched = graft_once () in
  let t_render = best (fun () -> Gf.Trace.to_chrome_json stitched) in
  let json = Gf.Trace.to_chrome_json stitched in
  Printf.printf
    "parse + graft: %.6fs; stitched Chrome JSON: %d events, %d bytes in %.6fs\n"
    t_graft
    (List.length (Gf.Trace.chrome_events stitched))
    (String.length json) t_render;
  (* Exposition render cost: what one Prometheus scrape of /metrics costs
     the serving process (registry walk + text formatting, no I/O). *)
  let db = Gf.Db.create g in
  let (_ : Gf.Counters.t * Gf.Governor.outcome) = Gf.Db.run_gov db q in
  let expo = Gf.Db.metrics_exposition () in
  let t_expo = best (fun () -> Gf.Db.metrics_exposition ()) in
  let lines = List.length (String.split_on_char '\n' expo) in
  Printf.printf "metrics_exposition: %d lines, %d bytes in %.6fs per scrape\n" lines
    (String.length expo) t_expo

(* ------------------------------------------------------------------ *)
(* Tables 10 & 11: catalogue accuracy (q-error) vs z and h.            *)
(* ------------------------------------------------------------------ *)

let qerror_queries g nl =
  (* Random connected 5-vertex patterns; labels randomized when nl > 1. *)
  let rng = Gf.Rng.create 77 in
  List.init 40 (fun i ->
      let dense = i mod 2 = 0 in
      let q0 = Gf.Patterns.random_query rng ~num_vertices:5 ~dense ~num_vlabels:1 in
      if nl = 1 then q0 else Gf.Patterns.randomize_edge_labels rng q0 ~num_elabels:nl)
  |> List.filter_map (fun q ->
         (* ground truth through the executor *)
         match Gf.Planner.plan (catalog g) q with
         | exception _ -> None
         | plan, _ ->
             let truth = float_of_int (Gf.Exec.count g plan) in
             Some (q, truth))

let qerror_distribution errors =
  let buckets = [ 2.0; 3.0; 5.0; 10.0; 20.0 ] in
  let n_at t = List.length (List.filter (fun e -> e <= t) errors) in
  String.concat " "
    (List.map (fun t -> Printf.sprintf "<=%.0f:%d" t (n_at t)) buckets)
  ^ Printf.sprintf " >20:%d" (List.length errors - n_at 20.0)

let table10 () =
  header "Table 10: q-error and catalogue construction time vs z (h=3)";
  List.iter
    (fun (dlabel, g, nl) ->
      subheader dlabel;
      let queries = qerror_queries g nl in
      Printf.printf "(%d 5-vertex queries)\n" (List.length queries);
      List.iter
        (fun z ->
          let cat = Gf.Catalog.create ~h:3 ~z g in
          let build_t, n = time_once (fun () -> Gf.Catalog.build_exhaustive cat) in
          let errors =
            List.map
              (fun (q, truth) ->
                Gf.Catalog.q_error ~estimate:(Gf.Cost_model.estimate_cardinality cat q) ~truth)
              queries
          in
          Printf.printf "z=%-5d build %6.2fs (%d entries)  %s\n" z build_t n
            (qerror_distribution errors))
        [ 100; 500; 1000 ])
    [
      ("amazon (unlabeled)", dataset_at (Gf.Generators.Amazon, spectrum_scale), 1);
      ("google (3 labels)", labeled (Gf.Generators.Google, spectrum_scale, 3), 3);
    ]

let table11 () =
  header "Table 11: q-error vs h (z=1000), with the independence-estimator baseline";
  List.iter
    (fun (dlabel, g, nl, hs) ->
      subheader dlabel;
      let queries = qerror_queries g nl in
      List.iter
        (fun h ->
          let cat = Gf.Catalog.create ~h ~z:1000 g in
          let _, n = time_once (fun () -> Gf.Catalog.build_exhaustive cat) in
          let errors =
            List.map
              (fun (q, truth) ->
                Gf.Catalog.q_error ~estimate:(Gf.Cost_model.estimate_cardinality cat q) ~truth)
              queries
          in
          Printf.printf "h=%d (%6d entries)  %s\n" h n (qerror_distribution errors))
        hs;
      let pg =
        List.map
          (fun (q, truth) -> Gf.Catalog.q_error ~estimate:(Gf.Independence.estimate g q) ~truth)
          queries
      in
      Printf.printf "independence (PG)    %s\n" (qerror_distribution pg))
    [
      ("amazon (unlabeled)", dataset_at (Gf.Generators.Amazon, spectrum_scale), 1, [ 2; 3; 4 ]);
      ("google (3 labels)", labeled (Gf.Generators.Google, spectrum_scale, 3), 3, [ 2; 3 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Table 12: Graphflow vs CFL on the human-like dataset.               *)
(* ------------------------------------------------------------------ *)

let table12 () =
  header "Table 12: Graphflow (GF) vs CFL-lite, human-like graph, output limit 100k";
  let g = dataset_at (Gf.Generators.Human, Float.min 1.0 (scale *. 4.0)) in
  let cat = catalog g in
  let limit = 100_000 in
  List.iter
    (fun dense ->
      List.iter
        (fun nv ->
          let rng = Gf.Rng.create (500 + nv + if dense then 1 else 0) in
          let queries =
            List.init 25 (fun _ -> Gf.Query_gen.from_data g rng ~num_vertices:nv ~dense)
          in
          let gf_total = ref 0.0 and cfl_total = ref 0.0 and ok = ref 0 in
          let matches = ref 0 in
          List.iter
            (fun q ->
              match Gf.Planner.plan cat q with
              | exception _ -> ()
              | plan, _ ->
                  let budget = Gf.Governor.budget ~max_output:limit () in
                  let t_gf, c =
                    time_once (fun () -> fst (Gf.Exec.run_gov ~distinct:true ~budget g plan))
                  in
                  let t_cfl, _ = time_once (fun () -> Gf.Cfl_baseline.run ~limit g q) in
                  matches := !matches + c.Gf.Counters.output;
                  gf_total := !gf_total +. t_gf;
                  cfl_total := !cfl_total +. t_cfl;
                  incr ok)
            queries;
          if !ok > 0 then
            Printf.printf
              "Q%d%s (%d queries, %s matches): GF %.4fs  CFL %.4fs (avg/query, CFL/GF %.1fx)\n"
              nv
              (if dense then "d" else "s")
              !ok (fmt_count !matches)
              (!gf_total /. float_of_int !ok)
              (!cfl_total /. float_of_int !ok)
              (!cfl_total /. Float.max !gf_total 1e-6))
        [ 10; 15; 20 ])
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Table 13: Graphflow vs Neo4j-style binary joins.                    *)
(* ------------------------------------------------------------------ *)

let table13 () =
  header "Table 13: Graphflow (GF) vs binary-join-only baseline (Neo4j stand-in)";
  List.iter
    (fun (dlabel, dname) ->
      let g = dataset dname in
      let cat = catalog g in
      subheader dlabel;
      List.iter
        (fun qi ->
          let q = Gf.Patterns.q qi in
          let plan, _ = Gf.Planner.plan cat q in
          let t_gf, _ = time_once (fun () -> fst (Gf.Exec.run_gov g plan)) in
          let t_bj, s = time_once (fun () -> Gf.Bj_baseline.run g q) in
          Printf.printf "Q%-3d GF %8.3fs   BJ %8.3fs (%.0fx, %s intermediate)\n" qi t_gf t_bj
            (t_bj /. Float.max t_gf 1e-6)
            (fmt_count s.Gf.Bj_baseline.intermediate))
        [ 1; 2; 4 ])
    [ ("amazon", Gf.Generators.Amazon); ("epinions", Gf.Generators.Epinions) ]

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

let ablation_cache_consciousness () =
  header "Ablation: cache-conscious vs cache-oblivious optimizer (Section 5.2)";
  let g = dataset Gf.Generators.Livejournal in
  let cat = catalog g in
  List.iter
    (fun (label, q) ->
      let o_con, _ = Gf.Planner.best_wco_order ~cache_conscious:true cat q in
      let o_obl, _ = Gf.Planner.best_wco_order ~cache_conscious:false cat q in
      let t_con, c_con =
        time_warm (fun () -> fst (Gf.Exec.run_gov g (Gf.Plan.wco q o_con)))
      in
      let t_obl, _ = time_warm (fun () -> fst (Gf.Exec.run_gov g (Gf.Plan.wco q o_obl))) in
      Printf.printf "%-22s conscious picks %s (%.3fs, %s hits); oblivious picks %s (%.3fs)\n"
        label (order_name o_con) t_con
        (fmt_count c_con.Gf.Counters.cache_hits)
        (order_name o_obl) t_obl)
    [
      ("diamond-X", Gf.Patterns.diamond_x);
      ("symmetric diamond-X", Gf.Patterns.symmetric_diamond_x);
    ]

let ablation_projection_constraint () =
  header "Ablation: projection constraint, plans P1 vs P2 (Figure 3)";
  let g = dataset Gf.Generators.Amazon in
  let q = Gf.Patterns.diamond_x in
  (* P1 (in our plan space): join of the two induced triangles on {a2,a3}. *)
  let p1 = Gf.Plan.hash_join q (Gf.Plan.wco q [| 1; 2; 0 |]) (Gf.Plan.wco q [| 1; 2; 3 |]) in
  (* P2 (outside it): the right subtree drops the a2->a3 edge, computing the
     open path a2->a4<-a3 instead of the induced triangle. *)
  let q_no23 =
    Gf.Query.create ~num_vertices:4
      ~edges:
        (Array.of_list
           (Array.to_list q.Gf.Query.edges
           |> List.filter (fun (e : Gf.Query.edge) -> not (e.src = 1 && e.dst = 2))))
      ()
  in
  let right_open = Gf.Plan.wco q_no23 [| 1; 3; 2 |] in
  let p2 = Gf.Plan.hash_join q (Gf.Plan.wco q [| 1; 2; 0 |]) right_open in
  let t1, c1 = time_warm (fun () -> fst (Gf.Exec.run_gov g p1)) in
  let t2, c2 = time_warm (fun () -> fst (Gf.Exec.run_gov g p2)) in
  Printf.printf "P1 (projection-constrained): %.3fs, %s matches\n" t1 (fmt_count c1.Gf.Counters.output);
  Printf.printf "P2 (edge dropped from right subtree): %.3fs, %s matches (%.1fx slower)\n" t2
    (fmt_count c2.Gf.Counters.output)
    (t2 /. Float.max t1 1e-6)

(* Section 4.2's calibration in the planner's unit, nanoseconds. First the
   E/I prices: every WCO ordering of the wco-heavy queries on their graph
   (Q14's every 60th), whose E/Is are mostly kernel calls, and of Figure
   7's path- and star-shaped Q2, Q11, Q12 and Q13 on amazon (every 4th for
   Q12 and Q13), whose E/Is are mostly not; each plan's summed features
   against its best time over [rounds] interleaved rounds, counted at the
   root, fitted by least squares of relative error. Then the HASH-JOIN
   weights: seconds become cost units through those E/I plans, and BJ
   plans' build and probe tuples are fitted in them. *)
let ablation_hashjoin_weights () =
  let sc = 2.0 *. scale in
  header
    (Printf.sprintf
       "Calibration: E/I prices and HASH-JOIN weights in ns (Section 4.2, google %.2f, amazon %.3f)" sc
       spectrum_scale);
  let rounds = 5 in
  let orderings g cat queries keep =
    List.concat_map
      (fun qi ->
        let q = Gf.Patterns.q qi in
        Gf.Planner.all_wco_orders cat q
        |> List.filteri (fun i _ -> keep qi i)
        |> List.map (fun (o, _) -> (g, qi, Gf.Plan.wco q o, Gf.Planner.wco_order_features cat q o)))
      queries
  in
  let google = dataset_at (Gf.Generators.Google, sc) in
  let amazon = dataset_at (Gf.Generators.Amazon, spectrum_scale) in
  let plans =
    Array.of_list
      (orderings google (Gf.Db.catalog (Gf.Db.create google)) [ 1; 3; 4; 5; 6; 7; 14 ]
         (fun qi i -> qi <> 14 || i mod 60 = 0)
      @ orderings amazon (catalog amazon) [ 2; 11; 12; 13 ] (fun qi i -> qi < 12 || i mod 4 = 0))
  in
  let best = Array.make (Array.length plans) infinity in
  (* After the first round a plan over 3x its query's fastest is dropped:
     the fit is for telling close plans apart. *)
  let fastest g qi =
    Array.fold_left min infinity
      (Array.mapi (fun i (g', qj, _, _) -> if g == g' && qi = qj then best.(i) else infinity) plans)
  in
  for r = 1 to rounds do
    Array.iteri
      (fun i (g, qi, p, _) ->
        if r = 1 || best.(i) <= 3.0 *. fastest g qi then begin
          let t, _ = time_once (fun () -> Gf.Exec.run_gov g p) in
          best.(i) <- Float.min best.(i) t
        end)
      plans
  done;
  let samples =
    List.filteri
      (fun i _ -> let g, qi, _, _ = plans.(i) in best.(i) <= 3.0 *. fastest g qi)
      (Array.to_list (Array.mapi (fun i (_, _, _, f) -> (f, best.(i))) plans))
  in
  let fitted = Gf.Cost.fit samples in
  let error prices =
    List.fold_left
      (fun acc (f, t) -> acc +. (Float.abs ((Gf.Cost.price_at prices f *. 1e-9) -. t) /. t))
      0.0 samples
    /. float_of_int (List.length samples)
  in
  let show name (k : Gf.Cost.features) =
    Printf.printf
      "%-8s candidate %6.2f  tuple %6.2f  intersection %6.2f  merged %5.3f  gallop %5.3f  probed %5.3f  (mean rel. error %.2f)\n"
      name k.candidates k.tuples k.intersections k.merged k.galloped k.probed (error k)
  in
  Printf.printf "%d WCO plans, %d within 3x of their query's fastest, best of %d interleaved rounds\n"
    (Array.length plans) (List.length samples) rounds;
  show "fitted" fitted;
  show "in use" Gf.Cost.kernel;
  let ei = List.map (fun (f, t) -> (Gf.Cost.price f, t)) samples in
  (* HASH-JOIN profile points from BJ-style joins of sub-plans. *)
  let g = amazon in
  let hj =
    List.concat_map
      (fun qi ->
        let q = Gf.Patterns.q qi in
        let plans, _ = Gf.Spectrum.plans ~per_subset_cap:3 ~family_cap:4 q in
        List.filter_map
          (fun (f, p) ->
            if f <> Gf.Spectrum.Bj then None
            else
            let w0 = ref 0. in
            let t, c =
              time_warm (fun () ->
                  w0 := Gc.minor_words ();
                  fst (Gf.Exec.run_gov g p))
            in
            let words = Gc.minor_words () -. !w0 in
            let build = c.Gf.Counters.hj_build_tuples in
            Printf.printf "Q%-3d BJ  build %9s  probe %9s  %.3fs  %.2f minor words/build tuple\n"
              qi (fmt_count build) (fmt_count c.Gf.Counters.hj_probe_tuples) t
              (words /. float_of_int (max 1 build));
            Some (float_of_int build, float_of_int c.Gf.Counters.hj_probe_tuples, t))
          plans)
      [ 2; 8; 11; 12; 13 ]
  in
  let w = Gf.Cost.calibrate ~ei ~hj in
  Printf.printf "profiled %d E/I points, %d HASH-JOIN points -> w1 = %.2f, w2 = %.2f (in use: %.2f, %.2f)\n"
    (List.length ei) (List.length hj) w.Gf.Cost.w1 w.Gf.Cost.w2 Gf.Cost.default_weights.w1
    Gf.Cost.default_weights.w2

let ablation_estimators () =
  header "Ablation: cardinality estimators (catalogue vs wander-join sampling vs independence)";
  List.iter
    (fun (dlabel, g, nl) ->
      subheader dlabel;
      let queries = qerror_queries g nl in
      let cat = Gf.Catalog.create ~h:3 ~z:1000 g in
      let errs name f =
        let t0 = Unix.gettimeofday () in
        let es = List.map (fun (q, truth) -> Gf.Catalog.q_error ~estimate:(f q) ~truth) queries in
        Printf.printf "%-22s %s  (%.2fs)\n" name (qerror_distribution es)
          (Unix.gettimeofday () -. t0)
      in
      errs "catalogue (h=3)" (fun q -> Gf.Cost_model.estimate_cardinality cat q);
      let rng = Gf.Rng.create 99 in
      errs "wander-join (2k walks)" (fun q -> Gf.Wander.estimate g q ~walks:2000 rng);
      errs "independence (PG)" (fun q -> Gf.Independence.estimate g q))
    [
      ("amazon (unlabeled)", dataset_at (Gf.Generators.Amazon, spectrum_scale), 1);
      ("google (3 labels)", labeled (Gf.Generators.Google, spectrum_scale, 3), 3);
    ]

let ablation_intersection_kernel () =
  header
    (Printf.sprintf "Ablation: two-list kernels, elements/s by length ratio (C dispatch: %s)"
       (Gf.Sorted.with_kernel_mode Gf.Sorted.Simd Gf.Sorted.kernel_name));
  (* Synthetic sorted lists with ~50%% overlap; the skewed buckets exercise
     the blocked-galloping path, the balanced ones the shuffle path. *)
  let rng = Gf.Rng.create 7 in
  let gen len =
    let out = Array.make len 0 in
    let v = ref 0 in
    for i = 0 to len - 1 do
      v := !v + 1 + Gf.Rng.int rng 2;
      out.(i) <- !v
    done;
    out
  in
  (* Elements per second of [f out] over [elems] input elements. *)
  let time_loop f elems =
    let out = Gf.Int_vec.create () in
    (* pilot to size the measured loop to ~0.15s *)
    let pilot = 200 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to pilot do
      Gf.Int_vec.clear out;
      f out
    done;
    let per = (Unix.gettimeofday () -. t0) /. float_of_int pilot in
    let reps = max 200 (int_of_float (0.15 /. Float.max per 1e-9)) in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      Gf.Int_vec.clear out;
      f out
    done;
    let t = Unix.gettimeofday () -. t0 in
    float_of_int (elems * reps) /. t
  in
  let time_kernel mode a la b lb =
    Gf.Sorted.with_kernel_mode mode (fun () ->
        time_loop (fun out -> Gf.Sorted.intersect2 out a 0 la b 0 lb) (la + lb))
  in
  (* The bitmap probe: one bit test per element of the shorter list
     against a row of the longer (C loop). The cascade takes it only from
     2:1 on; the 1:1 rows show why. *)
  let time_probe a la b_arr =
    let n = 1 + Array.fold_left max 0 b_arr in
    let bits = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout ((n + 63) / 64) in
    Bigarray.Array1.fill bits 0L;
    Array.iter (Gf.Sorted.mark bits 0) b_arr;
    time_loop (fun out -> Gf.Sorted.probe out a 0 la bits 0) (la + Array.length b_arr)
  in
  Printf.printf "%-12s %14s %14s %9s %14s\n" "ratio" "scalar el/s" "simd el/s" "speedup"
    "probe el/s";
  List.iter
    (fun (label, la, lb) ->
      let b_arr = gen lb in
      (* Keep value ranges aligned so the lists actually intersect: the
         shorter list strides through the longer one, every other element
         shifted off it, so both keep their lengths. *)
      let a_arr =
        if la = lb then gen la else Array.init la (fun i -> b_arr.(i * lb / la) + (i mod 2))
      in
      let a = Gf.Buf.of_int_array a_arr and b = Gf.Buf.of_int_array b_arr in
      let s = time_kernel Gf.Sorted.Scalar a la b lb in
      let v = time_kernel Gf.Sorted.Simd a la b lb in
      let p = time_probe a la b_arr in
      Printf.printf "%-12s %14s %14s %8.2fx %14s\n" label
        (fmt_count (int_of_float s))
        (fmt_count (int_of_float v))
        (v /. s)
        (fmt_count (int_of_float p)))
    [
      ("1:1 (4K)", 4096, 4096);
      ("1:1 (64K)", 65536, 65536);
      ("1:8", 2048, 16384);
      ("1:64", 512, 32768);
      ("1:512", 64, 32768);
    ]

(* Run-at-a-time E/I: the run kernel against one [Sorted.intersect] per
   tuple, on google 0.5's edge runs. A run is a source vertex u and the
   first [len] of its forward neighbours; each candidate c is extended as
   Q1's E/I extends (u, c): u's forward list (with its bitmap row) is the
   shared list, c's forward list the varying one. Per tuple, both lists
   are looked up and intersected by one call; per run, the shared list is
   looked up once and one kernel call covers up to 64 candidates. The
   "1 x64" row groups 64 runs of length 1 per kernel call, each run's
   shared list its key u's, read by the kernel itself. *)
let ablation_runs () =
  header "Ablation: run kernel vs per-tuple intersect, ns per candidate (google 0.5 edge runs)";
  let g = dataset_at (Gf.Generators.Google, 0.5) in
  let bits = Gf.Graph.bitmap_words g in
  let fwd = Gf.Graph.csr g Gf.Graph.Fwd ~elabel:0 ~nlabel:0 in
  let size u = Gf.Graph.partition_size g Gf.Graph.Fwd u ~elabel:0 ~nlabel:0 in
  (* ns per candidate of [f ()] over [cands] candidates, ~0.2 s of reps. *)
  let time f cands =
    f ();
    let reps = ref 0 and t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.2 do
      f ();
      incr reps
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (!reps * cands)
  in
  Printf.printf "%-8s %6s %13s %11s %9s %13s %11s %9s\n" "run len" "runs" "scalar tuple"
    "scalar run" "speedup" "simd tuple" "simd run" "speedup";
  List.iter
    (fun (label, len, grouped) ->
      let sources =
        List.filter (fun u -> size u >= len) (List.init (Gf.Graph.num_vertices g) Fun.id)
      in
      (* At most 4096 runs, spread over the eligible sources. *)
      let step = max 1 (List.length sources / 4096) in
      let sources = Array.of_list (List.filteri (fun i _ -> i mod step = 0) sources) in
      let cands = Array.length sources * len in
      let out = Gf.Int_vec.create ~capacity:4096 () in
      let per_tuple () =
        let l = Gf.Sorted.lists ~bits 2 in
        Array.iter
          (fun u ->
            let cb, clo, _ = Gf.Graph.neighbours g Gf.Graph.Fwd u ~elabel:0 ~nlabel:0 in
            for i = clo to clo + len - 1 do
              Gf.Graph.neighbours_into g Gf.Graph.Fwd u ~elabel:0 ~nlabel:0 l 0;
              Gf.Graph.neighbours_into g Gf.Graph.Fwd (Gf.Buf.unsafe_get cb i) ~elabel:0 ~nlabel:0 l 1;
              Gf.Int_vec.clear out;
              Gf.Sorted.intersect out l
            done)
          sources
      in
      let n = Gf.Sorted.run_chunk in
      let grp =
        { Gf.Sorted.tuple = [| 0; 0 |]; cands = fwd.nbr; keys = Array.make n 0; starts = Array.make n 0;
          ends = Array.make n 0; first = 0; last = 0; lo = 0; hi = 0 }
      in
      let drive r =
        Gf.Sorted.seek r ~j:0 ~i:grp.lo ~stop:grp.last;
        while r.Gf.Sorted.j < grp.last do
          ignore (Gf.Sorted.run_kernel ~count:false ~giant:max_int r out grp)
        done
      in
      let per_run () =
        let l = Gf.Sorted.lists ~bits 1 in
        let r = Gf.Sorted.run_state ~bits ~cache:true ~source:Fixed [| fwd |] in
        Array.iter
          (fun u ->
            Gf.Graph.neighbours_into g Gf.Graph.Fwd u ~elabel:0 ~nlabel:0 l 0;
            Gf.Sorted.set_shared r l.bufs.(0) l.lo.(0) l.hi.(0) l.row.(0);
            let _, clo, _ = Gf.Graph.neighbours g Gf.Graph.Fwd u ~elabel:0 ~nlabel:0 in
            grp.keys.(0) <- u;
            grp.starts.(0) <- clo;
            grp.ends.(0) <- clo + len;
            grp.last <- 1;
            grp.lo <- clo;
            grp.hi <- clo + len;
            drive r)
          sources
      in
      let per_group () =
        let r = Gf.Sorted.run_state ~bits ~keyed:[| fwd |] ~cache:true ~source:Key [| fwd |] in
        let q = ref 0 in
        let flush () =
          grp.last <- !q;
          grp.lo <- grp.starts.(0);
          grp.hi <- grp.ends.(!q - 1);
          drive r;
          q := 0
        in
        Array.iter
          (fun u ->
            let _, clo, _ = Gf.Graph.neighbours g Gf.Graph.Fwd u ~elabel:0 ~nlabel:0 in
            grp.keys.(!q) <- u;
            grp.starts.(!q) <- clo;
            grp.ends.(!q) <- clo + 1;
            incr q;
            if !q = n then flush ())
          sources;
        if !q > 0 then flush ()
      in
      let cell mode =
        Gf.Sorted.with_kernel_mode mode (fun () ->
            (time per_tuple cands, time (if grouped then per_group else per_run) cands))
      in
      let st, sr = cell Gf.Sorted.Scalar and vt, vr = cell Gf.Sorted.Simd in
      Printf.printf "%-8s %6d %13.1f %11.1f %8.2fx %13.1f %11.1f %8.2fx\n%!" label
        (Array.length sources) st sr (st /. sr) vt vr (vt /. vr))
    [ ("1", 1, false); ("1 x64", 1, true); ("8", 8, false); ("64", 64, false); ("512", 512, false) ];
  (* The E/I path end to end: the wco-heavy workload's seven plans on the
     same graph, counted at the root as a rows=false request runs them;
     best, median and range of [rounds] runs each. *)
  let db = Gf.Db.create g in
  let rounds = 15 in
  Printf.printf "%-5s %10s %10s %17s %12s\n" "query" "best ms" "median ms" "min-max ms" "matches";
  let best_sum = ref 0.0 and median_sum = ref 0.0 in
  List.iter
    (fun qi ->
      let plan, _ = Gf.Db.plan db (Gf.Patterns.q qi) in
      let matches = ref 0 in
      let times =
        Array.init rounds (fun _ ->
            let t, (c, _) = time_once (fun () -> Gf.Exec.run_gov g plan) in
            matches := c.Gf.Counters.output;
            t *. 1e3)
      in
      Array.sort Float.compare times;
      let best = times.(0) and median = times.(rounds / 2) and worst = times.(rounds - 1) in
      best_sum := !best_sum +. best;
      median_sum := !median_sum +. median;
      Printf.printf "Q%-4d %10.2f %10.2f %8.2f-%-8.2f %12d\n%!" qi best median best worst !matches)
    [ 1; 3; 4; 5; 6; 7; 14 ];
  Printf.printf "%-5s %10.2f %10.2f\n" "sum" !best_sum !median_sum

(* ------------------------------------------------------------------ *)
(* Picks: the Db's plan against every WCO ordering of its query.       *)
(* ------------------------------------------------------------------ *)

(* The wco-heavy workload's seven queries on google at twice the bench
   scale (0.5 by default, the workload's graph), counted at the root as a
   rows=false request runs them. Every ordering runs once; the pick and
   the [keep] fastest of that pass are then timed in [rounds] interleaved
   rounds, best of each. A row shows the model's estimate, the ordering's
   Eq. 1 i-cost (exec.icost) and its best time; [*] marks the pick. *)
let picks () =
  let sc = 2.0 *. scale in
  header (Printf.sprintf "Picks: the planner's pick against every WCO ordering (google %.2f)" sc);
  let g = dataset_at (Gf.Generators.Google, sc) in
  let db = Gf.Db.create g in
  let cat = Gf.Db.catalog db in
  let rounds = 9 and keep = 12 in
  let run p = fst (Gf.Exec.run_gov g p) in
  let pick_sum = ref 0.0 and best_sum = ref 0.0 in
  List.iter
    (fun qi ->
      let q = Gf.Patterns.q qi in
      let pick, pick_est = Gf.Db.plan db q in
      let pick_sig = Gf.Plan.signature pick in
      let screened =
        List.map
          (fun (o, est) ->
            let plan = Gf.Plan.wco q o in
            let t, c = time_once (fun () -> run plan) in
            (order_name o, plan, est, c.Gf.Counters.icost, t))
          (Gf.Planner.all_wco_orders cat q)
      in
      let n_orders = List.length screened in
      let others =
        List.filter (fun (_, p, _, _, _) -> Gf.Plan.signature p <> pick_sig) screened
        |> List.sort (fun (_, _, _, _, a) (_, _, _, _, b) -> Float.compare a b)
        |> List.filteri (fun i _ -> i < keep)
      in
      let pick_name =
        match List.find_opt (fun (_, p, _, _, _) -> Gf.Plan.signature p = pick_sig) screened with
        | Some (name, _, _, _, _) -> name
        | None -> "(not WCO)"
      in
      let pick_icost = (run pick).Gf.Counters.icost in
      let cands =
        Array.of_list ((pick_name, pick, pick_est, pick_icost, 0.0) :: others)
      in
      let best = Array.make (Array.length cands) infinity in
      for _ = 1 to rounds do
        Array.iteri
          (fun i (_, p, _, _, _) ->
            let t, _ = time_once (fun () -> run p) in
            best.(i) <- Float.min best.(i) (t *. 1e3))
          cands
      done;
      let fastest = Array.fold_left Float.min infinity best in
      pick_sum := !pick_sum +. best.(0);
      best_sum := !best_sum +. fastest;
      subheader
        (Printf.sprintf "Q%d: %d orderings, pick %s at %.2fx of the fastest" qi n_orders pick_name
           (best.(0) /. fastest));
      Printf.printf "  %-16s %14s %16s %9s\n" "ordering" "estimate" "Eq.1 i-cost" "best ms";
      Array.to_list (Array.mapi (fun i c -> (i, c)) cands)
      |> List.sort (fun (a, _) (b, _) -> Float.compare best.(a) best.(b))
      |> List.iter (fun (i, (name, _, est, icost, _)) ->
             Printf.printf "%s %-16s %14.4g %16s %9.2f\n" (if i = 0 then "*" else " ") name est
               (fmt_count icost) best.(i));
      flush stdout)
    [ 1; 3; 4; 5; 6; 7; 14 ];
  Printf.printf "sum of picks %.2f ms, sum of the fastest plans %.2f ms (%.2fx)\n" !pick_sum
    !best_sum
    (!pick_sum /. Float.max !best_sum 1e-9)

(* ------------------------------------------------------------------ *)
(* Storage: heap int-array CSR vs off-heap Bigarray CSR vs mmap.       *)
(* ------------------------------------------------------------------ *)

let storage () =
  header "Storage: heap int-array CSR vs off-heap Bigarray CSR vs mmap snapshot";
  let g = dataset Gf.Generators.Livejournal in
  let n = Gf.Graph.num_vertices g in
  let ne = Gf.Graph.num_elabels g and nv = Gf.Graph.num_vlabels g in
  let r = Gf.Graph.residency g in
  Printf.printf "graph: n=%s m=%s, %s off-heap (%d-byte ids), %s heap metadata\n"
    (fmt_count n)
    (fmt_count (Gf.Graph.num_edges g))
    (fmt_count r.Gf.Graph.offheap_bytes)
    r.Gf.Graph.nbr_width
    (fmt_count r.Gf.Graph.heap_bytes);
  (* A: heap copy of the CSR as ordinary int arrays (the pre-refactor
     representation): one array per (v, dir, el, nl) partition. *)
  let t_copy, heap =
    time_once (fun () ->
        Array.init (n * ne * nv) (fun i ->
            let v = i / (ne * nv) in
            let el = i mod (ne * nv) / nv and nl = i mod nv in
            let arr, lo, hi = Gf.Graph.neighbours g Gf.Graph.Fwd v ~elabel:el ~nlabel:nl in
            Gf.Buf.sub_array arr lo hi))
  in
  let heap_bytes =
    Array.fold_left (fun acc a -> acc + ((Array.length a + 1) * 8)) 0 heap
  in
  Printf.printf "heap int-array copy: %s bytes (%.2fx off-heap), built in %.3fs\n"
    (fmt_count heap_bytes)
    (float_of_int heap_bytes /. Float.max (float_of_int r.Gf.Graph.offheap_bytes) 1.0)
    t_copy;
  (* Full forward-adjacency sweep under each representation. *)
  let sweep_heap () =
    let acc = ref 0 in
    Array.iter (fun a -> Array.iter (fun x -> acc := !acc + x) a) heap;
    !acc
  in
  let sweep_graph g =
    let acc = ref 0 in
    for v = 0 to n - 1 do
      for el = 0 to ne - 1 do
        for nl = 0 to nv - 1 do
          let arr, lo, hi = Gf.Graph.neighbours g Gf.Graph.Fwd v ~elabel:el ~nlabel:nl in
          for i = lo to hi - 1 do
            acc := !acc + Gf.Buf.unsafe_get arr i
          done
        done
      done
    done;
    !acc
  in
  let t_heap, sum_heap = time_warm sweep_heap in
  let t_ba, sum_ba = time_warm (fun () -> sweep_graph g) in
  assert (sum_heap = sum_ba);
  Printf.printf "adjacency sweep: heap arrays %.3fs, bigarray CSR %.3fs (%.2fx)\n" t_heap t_ba
    (t_ba /. Float.max t_heap 1e-9);
  (* Snapshot: save, mmap load latency, and query parity built vs mapped. *)
  let path = Filename.temp_file "gfq_bench" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t_save, () = time_once (fun () -> Gf.Graph_io.save_snapshot g path) in
      let t_load, gm = time_once (fun () -> Gf.Graph_io.load_snapshot path) in
      let sz = (Unix.stat path).Unix.st_size in
      Printf.printf "snapshot: %s bytes, save %.3fs, mmap load %.6fs\n" (fmt_count sz)
        t_save t_load;
      let t_text, _ =
        time_once (fun () ->
            let tmp = Filename.temp_file "gfq_bench" ".graph" in
            Fun.protect
              ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
              (fun () ->
                Gf.Graph_io.save g tmp;
                Gf.Graph_io.load tmp))
      in
      Printf.printf "text round-trip for comparison: %.3fs (%.0fx slower than mmap)\n" t_text
        (t_text /. Float.max t_load 1e-9);
      let t_sweep_m, sum_m = time_warm (fun () -> sweep_graph gm) in
      assert (sum_m = sum_ba);
      Printf.printf "adjacency sweep on mapped graph: %.3fs (%.2fx vs built)\n" t_sweep_m
        (t_sweep_m /. Float.max t_ba 1e-9);
      let plan = Gf.Plan.wco Gf.Patterns.asymmetric_triangle [| 0; 1; 2 |] in
      let t_q, c = time_warm (fun () -> fst (Gf.Exec.run_gov g plan)) in
      let t_qm, cm = time_warm (fun () -> fst (Gf.Exec.run_gov gm plan)) in
      assert (c.Gf.Counters.output = cm.Gf.Counters.output);
      Printf.printf "triangle count: built %.3fs, mapped %.3fs on %s matches\n" t_q t_qm
        (fmt_count c.Gf.Counters.output))

let ablation_factorized_count () =
  header "Ablation: factorized counting (Sections 3.2.3 / 10)";
  let g = dataset Gf.Generators.Livejournal in
  List.iter
    (fun (label, q, order) ->
      let plan = Gf.Plan.wco q order in
      let t_enum, c = time_warm (fun () -> fst (Gf.Exec.run_gov ~sink:ignore g plan)) in
      let t_fast, n = time_warm (fun () -> Gf.Exec.count g plan) in
      assert (n = c.Gf.Counters.output);
      Printf.printf "%-22s enumerate %.3fs  count-only %.3fs (%.2fx) for %s matches\n" label
        t_enum t_fast
        (t_enum /. Float.max t_fast 1e-6)
        (fmt_count n))
    [
      ("triangle", Gf.Patterns.asymmetric_triangle, [| 0; 1; 2 |]);
      ("diamond-X (friendly)", Gf.Patterns.diamond_x, [| 1; 2; 0; 3 |]);
      ("tailed triangle", Gf.Patterns.tailed_triangle, [| 0; 1; 2; 3 |]);
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure.          *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  header "Bechamel micro-benchmarks (one per table/figure, scaled-down kernels)";
  let open Bechamel in
  let g = dataset_at (Gf.Generators.Amazon, 0.05) in
  let cat = Gf.Catalog.create ~z:100 g in
  let run_plan plan () = ignore (Gf.Exec.run_gov g plan) in
  let dx = Gf.Patterns.diamond_x in
  let tt = Gf.Patterns.tailed_triangle in
  let sdx = Gf.Patterns.symmetric_diamond_x in
  let tri = Gf.Patterns.asymmetric_triangle in
  let mk name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      mk "table3/diamondx-cache-on" (run_plan (Gf.Plan.wco dx [| 1; 2; 0; 3 |]));
      mk "table3/diamondx-cache-off" (fun () ->
          ignore (Gf.Exec.run_gov ~cache:false g (Gf.Plan.wco dx [| 1; 2; 0; 3 |])));
      mk "table4/triangle-fwd-fwd" (run_plan (Gf.Plan.wco tri [| 0; 1; 2 |]));
      mk "table5/tailed-triangle" (run_plan (Gf.Plan.wco tt [| 0; 1; 2; 3 |]));
      mk "table6/symmetric-diamondx" (run_plan (Gf.Plan.wco sdx [| 1; 2; 0; 3 |]));
      mk "table7/catalogue-entry" (fun () ->
          ignore (Gf.Catalog.entry cat tri ~new_vertex:2));
      mk "figure7/optimize-diamondx" (fun () -> ignore (Gf.Planner.plan cat dx));
      mk "figure8/adaptive-diamondx" (fun () ->
          ignore (Gf.Adaptive.run cat g dx (Gf.Plan.wco dx [| 1; 2; 0; 3 |])));
      mk "figure9/ghd-decompose" (fun () -> ignore (Gf.Ghd.min_width_decomposition dx));
      mk "table9/eh-plan" (fun () ->
          let d = Gf.Ghd.min_width_decomposition dx in
          ignore (Gf.Exec.run_gov g (Gf.Ghd.to_plan cat dx d Gf.Ghd.Lexicographic)));
      mk "figure10/q9-hybrid" (fun () -> ignore (Gf.Planner.plan cat (Gf.Patterns.q 9)));
      mk "figure11/parallel-2dom" (fun () ->
          ignore (Gf.Parallel.run ~domains:2 g (Gf.Plan.wco tri [| 0; 1; 2 |])));
      mk "table10/cardinality-estimate" (fun () ->
          ignore (Gf.Cost_model.estimate_cardinality cat dx));
      mk "table11/independence-estimate" (fun () -> ignore (Gf.Independence.estimate g dx));
      mk "table12/cfl-triangle" (fun () -> ignore (Gf.Cfl_baseline.count ~limit:1000 g tri));
      mk "table13/bj-triangle" (fun () -> ignore (Gf.Bj_baseline.count g tri));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 10) () in
    let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"t" [ test ]) in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance results
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "%-34s %12.1f ns/run\n" name est
        | _ -> Printf.printf "%-34s (no estimate)\n" name)
      ols
  in
  List.iter benchmark tests

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Durability: WAL fsync policies, merge and checkpoint cost, and the  *)
(* read-path parity claim (store-attached queries with an empty delta  *)
(* must run at plain-CSR speed).                                       *)
(* ------------------------------------------------------------------ *)

let durability () =
  header "Durability: WAL throughput, merge/checkpoint cost, read-path parity";
  let module Store = Gf_wal.Store in
  let g = dataset Gf.Generators.Amazon in
  let n = Gf.Graph.num_vertices g in
  let with_store_dir f =
    let dir = Filename.temp_file "gfq_bench_wal" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun b -> try Sys.remove (Filename.concat dir b) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () -> f dir)
  in
  let mutate st rng =
    let u = Gf.Rng.int rng n and v = Gf.Rng.int rng n in
    ignore (Store.add_edge st u v ~elabel:0)
  in
  let ops = int_of_float (2000.0 *. Float.max scale 0.1) in
  (* Policy A: fsync on every append — the strictest (and slowest) rule. *)
  let t_every =
    with_store_dir (fun dir ->
        let cfg = { Store.default_config with sync_every_append = true; merge_threshold = 0 } in
        let st = match Store.open_store ~config:cfg ~init:g dir with
          | Ok st -> st
          | Error e -> failwith (Store.open_error_to_string e)
        in
        let rng = Gf.Rng.create 5 in
        let t, () = time_once (fun () -> for _ = 1 to ops do mutate st rng done) in
        Store.close st;
        t)
  in
  (* Policy B: group commit — sync once per batch of 16, the service's
     ack batching under concurrent writers. *)
  let t_group =
    with_store_dir (fun dir ->
        let cfg = { Store.default_config with merge_threshold = 0 } in
        let st = match Store.open_store ~config:cfg ~init:g dir with
          | Ok st -> st
          | Error e -> failwith (Store.open_error_to_string e)
        in
        let rng = Gf.Rng.create 5 in
        let t, () =
          time_once (fun () ->
              for i = 1 to ops do
                mutate st rng;
                if i mod 16 = 0 then ignore (Store.sync st)
              done;
              ignore (Store.sync st))
        in
        Store.close st;
        t)
  in
  Printf.printf "%d mutations: fsync-every-append %s ops/s, group-commit(16) %s ops/s (%.1fx)\n"
    ops
    (fmt_count (int_of_float (float_of_int ops /. Float.max t_every 1e-9)))
    (fmt_count (int_of_float (float_of_int ops /. Float.max t_group 1e-9)))
    (t_every /. Float.max t_group 1e-9);
  (* Merge and checkpoint cost at a realistic overlay size. *)
  with_store_dir (fun dir ->
      let cfg = { Store.default_config with merge_threshold = 0 } in
      let st = match Store.open_store ~config:cfg ~init:g dir with
        | Ok st -> st
        | Error e -> failwith (Store.open_error_to_string e)
      in
      let rng = Gf.Rng.create 6 in
      for _ = 1 to ops do mutate st rng done;
      ignore (Store.sync st);
      let pend = Store.pending st in
      let t_merge, _ = time_once (fun () -> Store.merge_now st) in
      Printf.printf "merge: %s pending ops folded into a %s-edge CSR in %.3fs\n"
        (fmt_count pend)
        (fmt_count (Gf.Graph.num_edges (Store.graph st)))
        t_merge;
      let rng = Gf.Rng.create 7 in
      for _ = 1 to 64 do mutate st rng done;
      ignore (Store.sync st);
      let t_ckpt, r = time_once (fun () -> Store.checkpoint st) in
      (match r with
      | Ok v -> Printf.printf "checkpoint: snapshot v%d + rotate + prune in %.3fs\n" v t_ckpt
      | Error e -> Printf.printf "checkpoint FAILED: %s\n" (Store.mut_error_to_string e));
      (* Read-path parity: the same query against the plain CSR and
         against the store's merged CSR with an empty delta. The store
         read path is a pointer load — the criterion is within-noise. *)
      let q = Gf.Patterns.q 1 in
      let db_plain = Gf.Db.create g in
      let db_store = Gf.Db.create (Store.graph st) in
      let t_plain, c1 = time_warm (fun () -> Gf.Db.count db_plain q) in
      let t_store, _c2 = time_warm (fun () -> Gf.Db.count db_store q) in
      Printf.printf
        "read parity (triangles, %s matches): plain CSR %.3fs, store CSR %.3fs (%+.1f%%)\n"
        (fmt_count c1) t_plain t_store
        ((t_store -. t_plain) /. Float.max t_plain 1e-9 *. 100.0);
      Store.close st)

(* ---- Plan cache: amortization of planning cost + feedback convergence ---- *)

(* 3. Churn: a seeded stream of labeled 3-7 vertex templates cut out of
   the human analogue, over a pool larger than the cache, the way the
   labeled-short serving workload sends them: sizes in a fixed 12/12/12/8/6
   mix, Pareto(1.2) popularity within a size, one request in each size's
   share for a never-seen template, and every request re-numbered. Only
   lookups run (no executions, so no feedback), which isolates eviction.
   A template's planner work is its search's distinct estimates
   ([Cost_model.work], what the cost-aware cache charges); a miss redoes
   it. *)
let plan_cache_churn () =
  subheader "churn: mixed-size labeled templates over a pool larger than the cache";
  let g = dataset_at (Gf.Generators.Human, Float.min 1.0 (scale *. 4.0)) in
  let cat = catalog g in
  let rng = Gf.Rng.create 16 in
  let sizes = [| 3; 4; 5; 6; 7 |] and per_block = [| 12; 12; 12; 8; 6 |] in
  let per_size = 40 and fresh_per_size = 60 and capacity = 128 and lookups = 3000 in
  let template nv = Gf.Query_gen.from_data g rng ~num_vertices:nv ~dense:false in
  let pool = Array.map (fun nv -> Array.init per_size (fun _ -> template nv)) sizes in
  let fresh = Array.map (fun nv -> Array.init fresh_per_size (fun _ -> template nv)) sizes in
  (* Search every template once: warms the catalogue, so the timed
     lookups below plan without sampling, and prices each template. *)
  let work = Hashtbl.create 512 in
  Array.iter
    (Array.iter (fun q ->
         let _, _, model = Gf.Planner.search cat q in
         Hashtbl.replace work q (Gf.Cost_model.work model)))
    (Array.append pool fresh);
  let cdf =
    let w = Array.init per_size (fun r -> Float.pow (float_of_int (r + 1)) (-1. /. 1.2)) in
    let total = Array.fold_left ( +. ) 0. w and acc = ref 0. in
    Array.map (fun x -> acc := !acc +. (x /. total); !acc) w
  in
  let pick cum =
    let u = Gf.Rng.float rng 1.0 in
    let i = ref 0 in
    while !i < Array.length cum - 1 && cum.(!i) <= u do incr i done;
    !i
  in
  let class_cdf =
    let total = float_of_int (Array.fold_left ( + ) 0 per_block) and acc = ref 0 in
    Array.map (fun n -> acc := !acc + n; float_of_int !acc /. total) per_block
  in
  let next_fresh = Array.make (Array.length sizes) 0 in
  let renumber q =
    let n = Gf.Query.num_vertices q in
    let perm = Array.init n Fun.id in
    Gf.Rng.shuffle rng perm;
    let r = Gf.Query.relabel_vertices q perm in
    let edges = Array.copy r.Gf.Query.edges in
    Gf.Rng.shuffle rng edges;
    (Gf.Query.create ~num_vertices:n ~vlabels:r.Gf.Query.vlabels ~edges (), q)
  in
  let stream =
    Array.init lookups (fun _ ->
        let c = pick class_cdf in
        let q =
          if Gf.Rng.int rng per_block.(c) = 0 && next_fresh.(c) < fresh_per_size then begin
            next_fresh.(c) <- next_fresh.(c) + 1;
            fresh.(c).(next_fresh.(c) - 1)
          end
          else pool.(c).(pick cdf)
        in
        (c, renumber q))
  in
  let cache = Gf.Plan_cache.create ~capacity () in
  let opts = Gf.Planner.default_opts in
  let k = Array.length sizes in
  let reqs = Array.make k 0 and misses = Array.make k 0 and charged = Array.make k 0 in
  let miss_s = Array.make k 0. and total_s = ref 0. in
  Array.iter
    (fun (c, (q, template)) ->
      let t0 = Unix.gettimeofday () in
      let r = Gf.Plan_cache.lookup cache ~opts ~graph_version:0 cat q in
      let dt = Unix.gettimeofday () -. t0 in
      total_s := !total_s +. dt;
      reqs.(c) <- reqs.(c) + 1;
      if r.Gf.Plan_cache.outcome <> Gf.Plan_cache.Hit then begin
        misses.(c) <- misses.(c) + 1;
        charged.(c) <- charged.(c) + Hashtbl.find work template;
        miss_s.(c) <- miss_s.(c) +. dt
      end)
    stream;
  Printf.printf
    "%d pool + %d never-seen templates per size, cache %d, %d lookups (seed 16)\n" per_size
    fresh_per_size capacity lookups;
  Printf.printf "%-5s %8s %7s %12s %14s\n" "size" "lookups" "misses" "work charged"
    "planning (s)";
  Array.iteri
    (fun c nv ->
      Printf.printf "%-5d %8d %7d %12d %14.4f\n" nv reqs.(c) misses.(c) charged.(c) miss_s.(c))
    sizes;
  let sum = Array.fold_left ( + ) 0 in
  let s = Gf.Plan_cache.stats cache in
  Printf.printf
    "total: %d misses, hit ratio %.3f, %d evictions, work charged %d, planning %.4fs of %.4fs \
     in lookups\n"
    (sum misses)
    (float_of_int s.Gf.Plan_cache.hits /. float_of_int lookups)
    s.Gf.Plan_cache.evictions (sum charged)
    (Array.fold_left ( +. ) 0. miss_s)
    !total_s

let plan_cache_bench () =
  header "plan cache (planning amortization, feedback-driven replanning)";
  let g = dataset Gf.Generators.Amazon in
  let cat = catalog g in
  (* 1. Amortization: per-call optimize cost, cold DP vs cached lookup.
     The win must grow with pattern size: the DP is exponential in the
     vertex count, the cache hit is a linear skeleton instantiation. A hit
     under the same numbering every call finds its canonical code in the
     Canon memo; a re-numbered hit, as a client that names vertices afresh
     sends it, canonicalizes a query value the memo has not seen. *)
  subheader "optimize cost per call: cold DP vs cache hit (same numbering, re-numbered)";
  let per_call n f =
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do ignore (f i) done;
    (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let rng = Gf.Rng.create 14 in
  (* [count] distinct query values isomorphic to [q]: a random vertex
     numbering and edge order each. *)
  let renumbered q count =
    let n = Gf.Query.num_vertices q in
    let seen = Hashtbl.create count in
    while Hashtbl.length seen < count do
      let perm = Array.init n Fun.id in
      Gf.Rng.shuffle rng perm;
      let r = Gf.Query.relabel_vertices q perm in
      let edges = Array.copy r.Gf.Query.edges in
      Gf.Rng.shuffle rng edges;
      let r = Gf.Query.create ~num_vertices:n ~vlabels:r.Gf.Query.vlabels ~edges () in
      Hashtbl.replace seen r ()
    done;
    Array.of_seq (Hashtbl.to_seq_keys seen)
  in
  List.iter
    (fun i ->
      let q = Gf.Patterns.q i in
      ignore (Gf.Planner.plan cat q);
      (* catalogue warm *)
      let cold = per_call 20 (fun _ -> Gf.Planner.plan cat q) in
      let cache = Gf.Plan_cache.create () in
      let opts = Gf.Planner.default_opts in
      let lookup q = Gf.Plan_cache.lookup cache ~opts ~graph_version:0 cat q in
      ignore (lookup q);
      let hit = per_call 200 (fun _ -> lookup q) in
      let fresh = renumbered q 50 in
      let hit_renumbered = per_call (Array.length fresh) (fun k -> lookup fresh.(k)) in
      let s = Gf.Plan_cache.stats cache in
      Printf.printf
        "Q%-2d cold %9.1fus  hit %7.1fus (%7.1fx)  hit, re-numbered %9.1fus (%7.1fx)  (%d hits, %d misses)\n"
        i (cold *. 1e6) (hit *. 1e6) (cold /. Float.max hit 1e-9) (hit_renumbered *. 1e6)
        (cold /. Float.max hit_renumbered 1e-9)
        s.Gf.Plan_cache.hits s.Gf.Plan_cache.misses)
    [ 3; 7; 10; 14 ];
  (* 2. Feedback: a deliberately weak catalogue (h=2, tiny sample)
     mis-costs several benchmark queries. Each template's first profiled
     execution is observed; if some estimate is off by more than 4x the
     next lookup replans once under the observed ratios. Queries whose
     plan signature changes — and whose runtime improves — are the
     feedback win. *)
  subheader "feedback under a weak catalogue (h=2, z=30)";
  let cache = Gf.Plan_cache.create () in
  let db = Gf.Db.create ~h:2 ~z:30 ~plan_cache:cache g in
  List.iter
    (fun i ->
      let q = Gf.Patterns.q i in
      let round () = (Gf.Db.explain_analyze db q).Gf.Db.plan in
      let p0 = round () in
      let rec settle n p = if n = 0 then p else settle (n - 1) (round ()) in
      let pn = settle 4 p0 in
      let sig0 = Gf.Plan.signature p0 and sign = Gf.Plan.signature pn in
      if sig0 <> sign then begin
        (* Plan quality, measured on equal terms: warm plain executions of
           the pre- and post-feedback plans (no profiling overhead). *)
        let t0, _ = time_warm (fun () -> fst (Gf.Exec.run_gov g p0)) in
        let tn, _ = time_warm (fun () -> fst (Gf.Exec.run_gov g pn)) in
        Printf.printf "Q%-2d SWITCHED %s -> %s\n     %.4fs -> %.4fs (%+.1f%%)\n" i sig0
          sign t0 tn
          ((tn -. t0) /. Float.max t0 1e-9 *. 100.0)
      end
      else Printf.printf "Q%-2d kept    %s\n" i sig0)
    [ 2; 3; 4; 5; 6; 7; 8 ];
  let s = Gf.Plan_cache.stats cache in
  Printf.printf
    "cache: %d entries, %d hits, %d misses, %d replans, %d feedback folds\n"
    s.Gf.Plan_cache.entries s.Gf.Plan_cache.hits s.Gf.Plan_cache.misses
    s.Gf.Plan_cache.replans s.Gf.Plan_cache.feedbacks;
  plan_cache_churn ()

(* ---- Planner: what one plan-cache miss costs ---- *)

(* Labeled 3-7 vertex templates cut out of the human analogue, as the
   labeled-short serving workload sends them, each searched the way a
   plan-cache miss searches it, on three catalogues: [cold], a fresh one
   per template, so the miss samples every entry it reads and fills every
   label-triple table; [new], one warmed by every other template, so the
   tables are filled and the miss samples only the template's own entries
   (what a serving never-seen template pays); [warm], one warmed by every
   template, so the miss samples nothing. The three passes interleave over
   3 rounds. Per miss: the best of the rounds' planning times, ordering
   prefixes the WCO enumeration visits, [Canon.code] calls, catalogue
   entries sampled, walks started ({!Gf.Wander.walk_count}) and minor-heap
   words; the last five are exact. [spread] is the largest over the
   smallest of the rounds' row means. *)
let planner () =
  header "Planner: plan-miss cost by template size, cold, new and warm catalogue";
  let g = dataset_at (Gf.Generators.Human, Float.min 1.0 (scale *. 4.0)) in
  let rng = Gf.Rng.create 17 in
  let per_size = 20 and rounds = 3 in
  let sizes = [ 3; 4; 5; 6; 7 ] in
  let templates =
    List.concat_map
      (fun nv ->
        List.init per_size (fun i ->
            (nv, Gf.Query_gen.from_data g rng ~num_vertices:nv ~dense:(i mod 2 = 0))))
      sizes
  in
  let search cat q = ignore (Gf.Planner.search cat q) in
  let warm = Gf.Catalog.create g in
  List.iter (fun (_, q) -> search warm q) templates;
  let others_warmed q =
    let cat = Gf.Catalog.create g in
    List.iter (fun (_, q') -> if q' != q then search cat q') templates;
    cat
  in
  (* One miss: seconds, then the exact columns. *)
  let miss cat q =
    let p0 = Gf.Planner.wco_prefixes () and c0 = Gf.Canon.calls () in
    let e0 = Gf.Catalog.num_entries cat and k0 = Gf.Wander.walk_count () in
    (* The warm-ups' garbage is collected before, not during, the miss. *)
    Gc.major ();
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    search cat q;
    let dt = Unix.gettimeofday () -. t0 in
    ( dt,
      [|
        float_of_int (Gf.Planner.wco_prefixes () - p0);
        float_of_int (Gf.Canon.calls () - c0);
        float_of_int (Gf.Catalog.num_entries cat - e0);
        float_of_int (Gf.Wander.walk_count () - k0);
        (Gc.minor_words () -. w0) /. 1000.0;
      |] )
  in
  let passes =
    [
      ("cold", fun q -> miss (Gf.Catalog.create g) q);
      ("new", fun q -> miss (others_warmed q) q);
      ("warm", miss warm);
    ]
  in
  let ntemplates = List.length templates in
  (* times.(pass).(round).(template); exact columns from the first round. *)
  let times = Array.init (List.length passes) (fun _ -> Array.make_matrix rounds ntemplates 0.0) in
  let exact = Array.init (List.length passes) (fun _ -> Array.make ntemplates [||]) in
  for r = 0 to rounds - 1 do
    List.iteri
      (fun pi (_, run) ->
        List.iteri
          (fun ti (_, q) ->
            let dt, cols = run q in
            times.(pi).(r).(ti) <- dt;
            if r = 0 then exact.(pi).(ti) <- cols)
          templates)
      passes
  done;
  Printf.printf
    "%d templates per size (seed 17), default catalogue (h=3, z=1000), best of %d rounds\n"
    per_size rounds;
  Printf.printf "%-5s %-5s %8s %8s %8s %7s %9s %7s %8s %8s %8s\n" "cat" "size" "mean ms" "p50 ms"
    "max ms" "spread" "prefixes" "canon" "samples" "walks" "kwords";
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  let totals = Array.make (List.length passes) 0.0 in
  List.iteri
    (fun pi (label, _) ->
      List.iter
        (fun nv ->
          let idx =
            List.concat (List.mapi (fun ti (n, _) -> if n = nv then [ ti ] else []) templates)
            |> Array.of_list
          in
          let best =
            Array.map
              (fun ti ->
                Array.fold_left Float.min infinity
                  (Array.init rounds (fun r -> times.(pi).(r).(ti))))
              idx
          in
          let round_means =
            Array.init rounds (fun r -> mean (Array.map (fun ti -> times.(pi).(r).(ti)) idx))
          in
          let sorted = Array.copy best in
          Array.sort compare sorted;
          let col c = mean (Array.map (fun ti -> exact.(pi).(ti).(c)) idx) in
          totals.(pi) <- totals.(pi) +. Array.fold_left ( +. ) 0.0 best;
          Printf.printf "%-5s %-5d %8.3f %8.3f %8.3f %6.2fx %9.1f %7.1f %8.1f %8.1f %8.1f\n%!"
            label nv
            (1000.0 *. mean best)
            (1000.0 *. sorted.(Array.length sorted / 2))
            (1000.0 *. sorted.(Array.length sorted - 1))
            (Array.fold_left Float.max 0.0 round_means
            /. Array.fold_left Float.min infinity round_means)
            (col 0) (col 1) (col 2) (col 3) (col 4))
        sizes)
    passes;
  List.iteri
    (fun pi (label, _) ->
      Printf.printf "%s total: %.1f ms for %d misses\n" label (1000.0 *. totals.(pi)) ntemplates)
    passes

(* ------------------------------------------------------------------ *)
(* Cluster: sharded serving overhead, straggler hedging.               *)
(* ------------------------------------------------------------------ *)

let cluster () =
  header
    "Cluster: coordinator + workers vs single process (NOTE: container has 1 physical core)";
  let module Service = Gf_server.Service in
  let module Server = Gf_server.Server in
  let module Worker = Gf_cluster.Worker in
  let module Topology = Gf_cluster.Topology in
  let module Coordinator = Gf_cluster.Coordinator in
  let g = dataset_at (Gf.Generators.Amazon, scale *. 0.5) in
  let db = Gf.Db.create g in
  let dir = Filename.temp_file "gfclu-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let start_worker ?slow_s name =
    let svc = Service.create (Gf.Db.create g) in
    let w =
      Worker.create ?slow_s ~node:name ~n:(Gf.Graph.num_vertices g)
        ~m:(Gf.Graph.num_edges g) svc
    in
    let path = Filename.concat dir (name ^ ".sock") in
    let ready_m = Mutex.create () and ready_cv = Condition.create () in
    let ready = ref false in
    let th =
      Thread.create
        (fun () ->
          Server.serve ~hook:(Worker.hook w)
            ~on_ready:(fun _ ->
              Mutex.lock ready_m;
              ready := true;
              Condition.broadcast ready_cv;
              Mutex.unlock ready_m)
            svc (Server.Unix_path path))
        ()
    in
    Mutex.lock ready_m;
    while not !ready do
      Condition.wait ready_cv ready_m
    done;
    Mutex.unlock ready_m;
    (path, th)
  in
  let stop_worker (path, th) =
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Unix.connect fd (Unix.ADDR_UNIX path);
       let oc = Unix.out_channel_of_descr fd in
       output_string oc "shutdown\n";
       flush oc;
       (try ignore (input_line (Unix.in_channel_of_descr fd)) with _ -> ());
       Unix.close fd
     with Unix.Unix_error _ | Sys_error _ -> ());
    Thread.join th
  in
  let topo_of paths =
    let k = Array.length paths in
    let lines =
      List.init k (fun i ->
          Printf.sprintf "shard %d unix:%s unix:%s" i paths.(i) paths.((i + 1) mod k))
    in
    match Topology.parse (String.concat "\n" lines ^ "\n") with
    | Ok t -> t
    | Error m -> failwith m
  in
  let coord_config ~hedge =
    {
      Coordinator.default_config with
      Coordinator.hedge_after_s = hedge;
      probe_interval_s = 0.5;
      retries = 2;
    }
  in
  let req text =
    match Gf_server.Wire.parse_request ("run q=" ^ text) with
    | Ok (Gf_server.Wire.Run r) -> r
    | _ -> failwith "bench request"
  in
  (* Part 1: per-query latency, single process vs sharded topologies. On
     one core sharding buys no speedup — the delta IS the wire + fan-out
     overhead, which is the honest number to watch. *)
  let queries = [ ("Q1", Gf.Patterns.q 1); ("Q2", Gf.Patterns.q 2); ("Q14", Gf.Patterns.q 14) ] in
  Printf.printf "%-6s %12s %12s %12s\n" "query" "single" "1x2" "1x4";
  let topo_sizes = [ 2; 4 ] in
  List.iter
    (fun (label, q) ->
      let t_single, _ = time_warm (fun () -> Gf.Db.run_gov db q) in
      let t_topo =
        List.map
          (fun k ->
            let ws = Array.init k (fun i -> start_worker (Printf.sprintf "%s-w%d" label i)) in
            let coord =
              Coordinator.create ~config:(coord_config ~hedge:None)
                (topo_of (Array.map fst ws))
            in
            let run () =
              let r = Coordinator.run coord ~text:label (req label) in
              if r.Coordinator.r_outcome <> "completed" then failwith "bench run degraded"
            in
            run () (* warm connections *);
            let t, () = time_warm run in
            Coordinator.stop coord;
            Array.iter stop_worker ws;
            t)
          topo_sizes
      in
      Printf.printf "%-6s %11.3fs %11.3fs %11.3fs\n" label t_single (List.nth t_topo 0)
        (List.nth t_topo 1))
    queries;
  (* Part 2: one straggling worker (50 ms stall per shard request) in a
     1x4 topology. Hedging re-issues the stalled shard to its replica
     after 20 ms; p99 should collapse toward the healthy path. *)
  subheader "throughput and p99 under one slow worker (1x4, Q1), hedging off vs on";
  let run_batch ~hedge n =
    let ws =
      Array.init 4 (fun i ->
          if i = 0 then start_worker ~slow_s:0.05 "slow-w0"
          else start_worker (Printf.sprintf "str-w%d" i))
    in
    let coord = Coordinator.create ~config:(coord_config ~hedge) (topo_of (Array.map fst ws)) in
    let lat = Array.make n 0.0 in
    let r0 = Coordinator.run coord ~text:"Q1" (req "Q1") in
    if r0.Coordinator.r_outcome <> "completed" then failwith "bench straggler run degraded";
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      let s = Unix.gettimeofday () in
      ignore (Coordinator.run coord ~text:"Q1" (req "Q1"));
      lat.(i) <- Unix.gettimeofday () -. s
    done;
    let wall = Unix.gettimeofday () -. t0 in
    let hedges =
      match Gf_util.Json.parse (Coordinator.stats_json coord) with
      | Ok v -> Option.value (Gf_util.Json.int "hedges" v) ~default:0
      | Error _ -> 0
    in
    Coordinator.stop coord;
    Array.iter stop_worker ws;
    Array.sort compare lat;
    let pct p = lat.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)) in
    (float_of_int n /. wall, pct 0.50, pct 0.99, hedges)
  in
  let n = 40 in
  let thr_off, p50_off, p99_off, _ = run_batch ~hedge:None n in
  let thr_on, p50_on, p99_on, hedges = run_batch ~hedge:(Some 0.02) n in
  Printf.printf "hedge off: %6.1f req/s  p50 %6.1fms  p99 %6.1fms\n" thr_off (p50_off *. 1e3)
    (p99_off *. 1e3);
  Printf.printf "hedge on:  %6.1f req/s  p50 %6.1fms  p99 %6.1fms  (%d hedges fired)\n" thr_on
    (p50_on *. 1e3) (p99_on *. 1e3) hedges;
  Printf.printf "p99 improvement from hedging: %.1fx\n" (p99_off /. Float.max p99_on 1e-9)

let sections =
  [
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("figure7", figure7);
    ("figure8", figure8);
    ("figure9", figure9);
    ("table9", table9);
    ("figure10", figure10);
    ("figure11", figure11);
    ("governor", governor);
    ("resilience", resilience);
    ("observability", observability);
    ("tracing", tracing);
    ("wire_obs", wire_obs);
    ("table10", table10);
    ("table11", table11);
    ("table12", table12);
    ("table13", table13);
    ("ablation_cache", ablation_cache_consciousness);
    ("ablation_projection", ablation_projection_constraint);
    ("ablation_weights", ablation_hashjoin_weights);
    ("ablation_estimators", ablation_estimators);
    ("ablation_intersection", ablation_intersection_kernel);
    ("ablation_runs", ablation_runs);
    ("picks", picks);
    ("ablation_factorized", ablation_factorized_count);
    ("storage", storage);
    ("durability", durability);
    ("plan_cache", plan_cache_bench);
    ("planner", planner);
    ("cluster", cluster);
    ("bechamel", bechamel_suite);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse = function
    | "--list" :: _ ->
        List.iter (fun (n, _) -> print_endline n) sections;
        exit 0
    | "--only" :: spec :: _ ->
        let wanted = String.split_on_char ',' spec in
        (match List.filter (fun n -> not (List.mem_assoc n sections)) wanted with
        | [] -> ()
        | unknown ->
            prerr_endline ("no such section: " ^ String.concat ", " unknown);
            exit 1);
        List.filter (fun (n, _) -> List.mem n wanted) sections
    | _ :: rest -> parse rest
    | [] -> sections
  in
  let chosen = parse args in
  Printf.printf "bench scale: %.2f (set GF_BENCH_SCALE to change)\nkernel: %s (%s build)\n"
    scale (Gf.Sorted.kernel_name ()) Gf.Build_info.profile;
  let t0 = Unix.gettimeofday () in
  let failed =
    List.filter
      (fun (name, f) ->
        try
          f ();
          false
        with e ->
          Printf.printf "[%s FAILED: %s]\n" name (Printexc.to_string e);
          true)
      chosen
  in
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0);
  if failed <> [] then exit 1
