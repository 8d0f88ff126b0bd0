(* The planner's branch-and-bound WCO enumeration and the cost model's
   template-space Section 5.2 fallback must change no plan: each search is
   compared with the exhaustive reference below, on a separate fresh
   catalogue, for the plan, the bits of its cost and the number of
   estimates behind it. *)
open Gf_query
module Catalog = Gf_catalog.Catalog
module Cost = Gf_opt.Cost
module Cost_model = Gf_opt.Cost_model
module Planner = Gf_opt.Planner
module Plan = Gf_plan.Plan
module Graph = Gf_graph.Graph
module Generators = Gf_graph.Generators
module Rng = Gf_util.Rng
module Bitset = Gf_util.Bitset

(* The search as it was before branch and bound: every prefix-connected
   ordering enumerated, every HASH-JOIN pair costed, over a cost model that
   induces each sub-query afresh and recurses on each induced pattern for
   an oversize extension ([mu_estimate]). *)
module Reference = struct
  (* Section 5.2's fallback on a pattern: for an extension past h + 1
     vertices, the least selectivity over the patterns left by removing
     |old| - h old vertices, recursing on each, skipping removals that
     disconnect it; failing any, the least global average list size. *)
  let rec mu_estimate cat qk ~new_vertex =
    match Catalog.entry cat qk ~new_vertex with
    | Some e -> e.Catalog.mu
    | None ->
        let old = Bitset.remove new_vertex (Bitset.full (Query.num_vertices qk)) in
        let members = Bitset.to_array old in
        let best = ref infinity in
        let rec choose removed count start =
          if count = Array.length members - Catalog.h cat then begin
            let sub, map = Query.induced qk (Bitset.add new_vertex (Bitset.diff old removed)) in
            let np = ref (-1) in
            Array.iteri (fun i v -> if v = new_vertex then np := i) map;
            let np = !np in
            let old_part = Bitset.remove np (Bitset.full (Query.num_vertices sub)) in
            if
              Query.is_connected sub
              && Query.is_connected_subset sub old_part
              && Plan.descriptors sub (Bitset.to_array old_part) np <> [||]
            then best := Float.min !best (mu_estimate cat sub ~new_vertex:np)
          end
          else
            for i = start to Array.length members - 1 do
              choose (Bitset.add members.(i) removed) (count + 1) (i + 1)
            done
        in
        choose Bitset.empty 0 0;
        if !best < infinity then !best
        else
          Array.fold_left
            (fun acc (d : Plan.descriptor) ->
              let src = members.(d.pos) in
              Float.min acc
                (Catalog.avg_partition_size cat ~dir:d.dir ~slabel:(Query.vlabel qk src)
                   ~elabel:d.elabel ~nlabel:(Query.vlabel qk new_vertex)))
            infinity
            (Plan.descriptors qk members new_vertex)
          |> fun x -> if x = infinity then 1.0 else x

  type model = {
    cat : Catalog.t;
    q : Query.t;
    cache_conscious : bool;
    weights : Cost.weights;
    corrections : (Bitset.t -> float) option;
    cards : (int, float) Hashtbl.t;
    mus : (int * int, float) Hashtbl.t;
    exts : (int * int, (int * Catalog.stat) array * Catalog.work) Hashtbl.t;
  }

  let work t = Hashtbl.length t.cards + Hashtbl.length t.mus + Hashtbl.length t.exts

  let induced_extension t ~child ~v =
    let sub, map = Query.induced t.q (Bitset.add v child) in
    let vpos = ref (-1) in
    Array.iteri (fun i ov -> if ov = v then vpos := i) map;
    (sub, map, !vpos)

  let mu t ~child ~v =
    match Hashtbl.find_opt t.mus (child, v) with
    | Some m -> m
    | None ->
        let sub, _, vpos = induced_extension t ~child ~v in
        let m = mu_estimate t.cat sub ~new_vertex:vpos in
        Hashtbl.replace t.mus (child, v) m;
        m

  let rec raw_card t s =
    match Hashtbl.find_opt t.cards s with
    | Some c -> c
    | None ->
        let c =
          if Bitset.cardinal s = 2 then
            List.fold_left
              (fun acc (e : Query.edge) ->
                Float.min acc
                  (float_of_int
                     (Catalog.edge_count t.cat ~elabel:e.label ~slabel:(Query.vlabel t.q e.src)
                        ~dlabel:(Query.vlabel t.q e.dst))))
              infinity (Query.edges_within t.q s)
          else begin
            let exhaustive = Bitset.cardinal s <= 8 in
            let best = ref infinity in
            (try
               Bitset.iter
                 (fun v ->
                   let rest = Bitset.remove v s in
                   if
                     Query.is_connected_subset t.q rest
                     && Bitset.inter (Query.neighbours t.q v) rest <> Bitset.empty
                   then begin
                     let est = raw_card t rest *. mu t ~child:rest ~v in
                     if est < !best then best := est;
                     if not exhaustive then raise Exit
                   end)
                 s
             with Exit -> ());
            if !best < infinity then !best else 0.0
          end
        in
        Hashtbl.replace t.cards s c;
        c

  let card t s =
    let c = raw_card t s in
    match t.corrections with None -> c | Some f -> c *. f s

  (* Each list of the extension, in [q]'s edge order, with its source
     vertex and the catalogue's statistics for the induced pattern. *)
  let ext t ~child ~v =
    match Hashtbl.find_opt t.exts (child, v) with
    | Some x -> x
    | None ->
        let sub, map, vpos = induced_extension t ~child ~v in
        let pos_of = Hashtbl.create 8 in
        Array.iteri (fun i ov -> Hashtbl.replace pos_of ov i) map;
        let ds =
          Array.to_list t.q.Query.edges
          |> List.filter_map (fun (e : Query.edge) ->
                 if e.dst = v && Bitset.mem e.src child then Some (e.src, Graph.Fwd, e.label)
                 else if e.src = v && Bitset.mem e.dst child then Some (e.dst, Graph.Bwd, e.label)
                 else None)
          |> Array.of_list
        in
        let { Catalog.stats; all; _ } =
          Catalog.descriptor_stats t.cat sub ~new_vertex:vpos
            (Array.map (fun (u, dir, l) -> (Hashtbl.find pos_of u, dir, l)) ds)
        in
        (* Past h + 1 vertices a list's step and stable work come from the
           (h + 1)-vertex patterns of [v] and h of its neighbours in
           [child], connected, holding the list's source: the least step
           work, then the least stable work. *)
        let stats =
          if Query.num_vertices sub <= Catalog.h t.cat + 1 then stats
          else
            let price = Cost.price_work in
            Array.map2
              (fun (u, dir, l) (st : Catalog.stat) ->
                let best = ref None in
                for part = 1 to Bitset.full (Query.num_vertices t.q) do
                  if
                    Bitset.subset part (Bitset.inter child (Query.neighbours t.q v))
                    && Bitset.mem u part
                    && Bitset.cardinal part = Catalog.h t.cat
                    && Query.is_connected_subset t.q part
                  then begin
                    let psub, map, vp = induced_extension t ~child:part ~v in
                    let up = ref (-1) in
                    Array.iteri (fun i ov -> if ov = u then up := i) map;
                    let own =
                      (Catalog.descriptor_stats t.cat psub ~new_vertex:vp [| (!up, dir, l) |]).stats.(0)
                    in
                    let key = (price own.Catalog.step, price own.Catalog.stable) in
                    match !best with
                    | Some (k, _) when k <= key -> ()
                    | _ -> best := Some (key, own)
                  end
                done;
                match !best with
                | Some (_, own) -> { st with Catalog.step = own.Catalog.step; stable = own.Catalog.stable }
                | None -> st)
              ds stats
        in
        let x = (Array.map2 (fun (u, _, _) st -> (u, st)) ds stats, all) in
        Hashtbl.replace t.exts (child, v) x;
        x

  (* The edges between [a] and [b]: direction and label. *)
  let links t a b =
    Array.to_list t.q.Query.edges
    |> List.filter_map (fun (e : Query.edge) ->
           if e.src = a && e.dst = b then Some (true, e.label)
           else if e.src = b && e.dst = a then Some (false, e.label)
           else None)

  (* The run kernel's work: [last]'s list varies, the others form [S]. *)
  let extension_cost t ~chain ~last ~child ~v =
    let lists, all = ext t ~child ~v in
    let tuples = card t child in
    let stable =
      List.filter (fun u -> u <> last)
        (Array.to_list (Bitset.to_array (Bitset.inter (Query.neighbours t.q v) child)))
    in
    let ns = List.length stable in
    let own =
      List.hd chain <> child
      && Query.vlabel t.q last = Query.vlabel t.q v
      && List.for_all
           (fun p -> links t p last = links t p v)
           (Array.to_list (Bitset.to_array (Bitset.remove last child)))
    in
    let per =
      if ns < 2 || own then 0.0
      else begin
        let sources = Bitset.of_list stable in
        let rec find = function
          | [] -> child
          | prefix :: rest -> if Bitset.subset sources prefix then prefix else find rest
        in
        if t.cache_conscious then Float.min tuples (card t (find chain)) else tuples
      end
    in
    let k = Cost.kernel in
    let s work = if per = 0.0 then 0.0 else per *. (k.intersections +. Cost.price_work work) in
    match List.find_opt (fun (u, _) -> u = last) (Array.to_list lists) with
    | None -> (tuples *. k.tuples) +. s all
    | Some _ when ns = 0 -> tuples *. k.tuples
    | Some (_, st) -> (tuples *. (k.candidates +. Cost.price_work st.Catalog.step)) +. s st.Catalog.stable

  let hash_join_cost t s1 s2 = (t.weights.Cost.w1 *. card t s1) +. (t.weights.Cost.w2 *. card t s2)

  type info = { plan : Plan.t; cost : float; chain : Bitset.t list }

  let scan_pairs q =
    let seen = Hashtbl.create 8 in
    Array.to_list q.Query.edges
    |> List.filter (fun (e : Query.edge) ->
           let key = (min e.src e.dst, max e.src e.dst) in
           (not (Hashtbl.mem seen key)) && (Hashtbl.replace seen key (); true))

  let enumerate_wco model q record =
    let m = Query.num_vertices q in
    let rec dfs subset chain_rev cost order_rev =
      record subset cost order_rev;
      if Bitset.cardinal subset < m then
        for v = 0 to m - 1 do
          if
            (not (Bitset.mem v subset))
            && Bitset.inter (Query.neighbours q v) subset <> Bitset.empty
          then begin
            let s' = Bitset.add v subset in
            let c =
              cost
              +. extension_cost model ~chain:(List.rev chain_rev) ~last:(List.hd order_rev)
                   ~child:subset ~v
            in
            dfs s' (s' :: chain_rev) c (v :: order_rev)
          end
        done
    in
    List.iter
      (fun (e : Query.edge) ->
        let s0 = Bitset.of_list [ e.src; e.dst ] in
        dfs s0 [ s0 ] 0.0 [ e.dst; e.src ])
      (scan_pairs q)

  let model ?(opts = Planner.default_opts) ?corrections cat q =
    {
      cat;
      q;
      cache_conscious = opts.Planner.cache_conscious;
      weights = opts.Planner.weights;
      corrections;
      cards = Hashtbl.create 64;
      mus = Hashtbl.create 64;
      exts = Hashtbl.create 64;
    }

  (* [Planner.search] with the default plan space ([Hybrid], no beam). *)
  let search ?(opts = Planner.default_opts) ?corrections cat q =
    let m = Query.num_vertices q in
    let model = model ~opts ?corrections cat q in
    let table = Hashtbl.create 64 in
    List.iter
      (fun (e : Query.edge) ->
        let s = Bitset.of_list [ e.src; e.dst ] in
        Hashtbl.replace table s { plan = Plan.scan q e; cost = 0.0; chain = [ s ] })
      (scan_pairs q);
    let best_wco = Hashtbl.create 64 in
    enumerate_wco model q (fun subset cost order_rev ->
        match Hashtbl.find_opt best_wco subset with
        | Some (c, _) when c <= cost -> ()
        | _ -> Hashtbl.replace best_wco subset (cost, order_rev));
    let by_size = Array.make (m + 1) [] in
    for s = 1 to Bitset.full m do
      if Query.is_connected_subset q s then
        by_size.(Bitset.cardinal s) <- s :: by_size.(Bitset.cardinal s)
    done;
    let consider best candidate =
      match best with Some b when b.cost <= candidate.cost -> best | _ -> Some candidate
    in
    for k = 3 to m do
      List.iter
        (fun s ->
          let best = ref None in
          (match Hashtbl.find_opt best_wco s with
          | Some (cost, order_rev) ->
              let order = Array.of_list (List.rev order_rev) in
              let chain = ref [] and acc = ref Bitset.empty in
              Array.iteri
                (fun i v ->
                  acc := Bitset.add v !acc;
                  if i >= 1 then chain := !acc :: !chain)
                order;
              best := consider !best { plan = Plan.wco q order; cost; chain = List.rev !chain }
          | None -> ());
          Bitset.iter
            (fun v ->
              let child = Bitset.remove v s in
              if Bitset.inter (Query.neighbours q v) child <> Bitset.empty then
                match Hashtbl.find_opt table child with
                | Some ci ->
                    let vars = Plan.vars ci.plan in
                    let last = vars.(Array.length vars - 1) in
                    let c = ci.cost +. extension_cost model ~chain:ci.chain ~last ~child ~v in
                    best :=
                      consider !best
                        { plan = Plan.extend q ci.plan v; cost = c; chain = ci.chain @ [ s ] }
                | None -> ())
            s;
          Bitset.fold_proper_nonempty_subsets
            (fun s1 () ->
              match Hashtbl.find_opt table s1 with
              | None -> ()
              | Some i1 ->
                  let rest = Bitset.diff s s1 in
                  let o = ref s1 in
                  while !o <> Bitset.empty do
                    let s2 = Bitset.union rest !o in
                    (if s2 <> s then
                       match Hashtbl.find_opt table s2 with
                       | None -> ()
                       | Some i2 ->
                           let new1 = Bitset.diff s1 s2 and new2 = Bitset.diff s2 s1 in
                           let convertible =
                             Bitset.cardinal new1 <= 1 || Bitset.cardinal new2 <= 1
                           in
                           let covered =
                             List.for_all
                               (fun (e : Query.edge) ->
                                 (Bitset.mem e.src s1 && Bitset.mem e.dst s1)
                                 || (Bitset.mem e.src s2 && Bitset.mem e.dst s2))
                               (Query.edges_within q s)
                           in
                           if (not convertible) && covered then begin
                             let c1 = card model s1 and c2 = card model s2 in
                             let build, probe, bi, pi =
                               if c1 <= c2 then (s1, s2, i1, i2) else (s2, s1, i2, i1)
                             in
                             let cost = bi.cost +. pi.cost +. hash_join_cost model build probe in
                             best :=
                               consider !best
                                 { plan = Plan.hash_join q bi.plan pi.plan; cost; chain = [ s ] }
                           end);
                    o := (!o - 1) land s1
                  done)
            s ();
          match !best with Some info -> Hashtbl.replace table s info | None -> ())
        by_size.(k)
    done;
    let info = Hashtbl.find table (Bitset.full m) in
    (info.plan, info.cost, work model)
end

let cat_of g = Catalog.create ~z:300 g

(* Plans [queries] on one fresh catalogue with the planner and on another
   with the reference; returns the mismatches. *)
let mismatches ?opts ?corrections g queries =
  let cat = cat_of g and ref_cat = cat_of g in
  List.filter_map
    (fun (name, q) ->
      let p, cost, model = Planner.search ?opts ?corrections cat q in
      let rp, rcost, rwork = Reference.search ?opts ?corrections ref_cat q in
      let work = Cost_model.work model in
      if
        Plan.to_string p = Plan.to_string rp
        && Int64.bits_of_float cost = Int64.bits_of_float rcost
        && work = rwork
      then None
      else
        Some
          (Printf.sprintf "%s: planner %s cost %h work %d; reference %s cost %h work %d" name
             (Plan.to_string p) cost work (Plan.to_string rp) rcost rwork))
    queries

let check_none what = function
  | [] -> ()
  | l ->
      Alcotest.failf "%s: %d mismatches, first: %s" what (List.length l) (List.hd l)

let benchmark_queries =
  List.map (fun i -> (Printf.sprintf "Q%d" i, Patterns.q i)) (List.init 14 (fun i -> i + 1))

let test_benchmark_queries () =
  List.iter
    (fun d ->
      let g = Generators.dataset ~scale:0.02 d in
      check_none (Generators.dataset_name_to_string d) (mismatches g benchmark_queries))
    Generators.[ Google; Amazon; Epinions ]

(* The cache-oblivious costing and other HASH-JOIN weights bound the
   search the same way. *)
let test_other_opts () =
  let g = Generators.dataset ~scale:0.02 Generators.Amazon in
  List.iter
    (fun (what, opts) -> check_none what (mismatches ~opts g benchmark_queries))
    [
      ("cache-oblivious", { Planner.default_opts with cache_conscious = false });
      ("w1=0.5, w2=4", { Planner.default_opts with weights = { Cost.w1 = 0.5; w2 = 4.0 } });
    ]

(* EH-g's ordering comes from the bounded enumeration: the first cheapest
   of all orderings, as a fold over [all_wco_orders] picks it. *)
let test_best_wco_order () =
  let g = Generators.dataset ~scale:0.02 Generators.Amazon in
  let cat = cat_of g in
  List.iter
    (fun (name, q) ->
      match Planner.all_wco_orders cat q with
      | [] | (exception Planner.No_plan _) -> ()
      | first :: rest ->
          let want, want_cost =
            List.fold_left (fun (bo, bc) (o, c) -> if c < bc then (o, c) else (bo, bc)) first rest
          in
          let got, got_cost = Planner.best_wco_order cat q in
          Alcotest.(check (array int)) (name ^ " ordering") want got;
          Alcotest.(check int64) (name ^ " cost") (Int64.bits_of_float want_cost)
            (Int64.bits_of_float got_cost))
    benchmark_queries

let human () = Generators.dataset ~scale:0.1 Generators.Human

let human_templates g =
  let rng = Rng.create 2024 in
  List.init 500 (fun i ->
      let nv = 3 + (i mod 5) in
      ( Printf.sprintf "template %d (%d vertices)" i nv,
        Gf_baseline.Query_gen.from_data g rng ~num_vertices:nv ~dense:(i mod 2 = 0) ))

let test_labeled_templates () =
  let g = human () in
  check_none "human templates" (mismatches g (human_templates g))

(* A replan under learned corrections: every third subset's cardinality
   scaled up or down, as a drifted plan-cache template would see. *)
let test_replan_under_corrections () =
  let g = Generators.dataset ~scale:0.02 Generators.Google in
  let corrections s = if s mod 3 = 0 then 40.0 else if s mod 3 = 1 then 0.05 else 1.0 in
  check_none "corrected" (mismatches ~corrections g benchmark_queries)

(* Catalogue entries depend only on the pattern: planning a query after
   other numberings of it (or nothing) were planned on the catalogue, and
   planning any renumbering of it, yields one cost, and the same plan for
   the same numbering. *)
let test_estimates_depend_only_on_pattern () =
  let g = Generators.dataset ~scale:0.05 Generators.Google in
  let rng = Rng.create 3 in
  let renumber q =
    let perm = Array.init (Query.num_vertices q) Fun.id in
    Rng.shuffle rng perm;
    Query.relabel_vertices q perm
  in
  List.iter
    (fun i ->
      let q = Patterns.q i in
      let p0, c0 = Planner.plan (cat_of g) q in
      for _ = 1 to 4 do
        let cat = cat_of g in
        let r = renumber q in
        let _, cr = Planner.plan cat r in
        let p, c = Planner.plan cat q in
        Alcotest.(check string) (Printf.sprintf "Q%d plan after history" i) (Plan.to_string p0)
          (Plan.to_string p);
        Alcotest.(check int64)
          (Printf.sprintf "Q%d cost after history" i)
          (Int64.bits_of_float c0) (Int64.bits_of_float c);
        Alcotest.(check int64)
          (Printf.sprintf "Q%d cost renumbered" i)
          (Int64.bits_of_float c0) (Int64.bits_of_float cr)
      done)
    [ 1; 2; 3; 4; 5; 8; 9; 10 ]

(* [Cost_model.estimate_cardinality] is the reference DP on the whole
   query, bit for bit, for every query the cases above plan; a one-vertex
   query estimates to 0. *)
let test_cardinality () =
  let check what g queries =
    let cat = cat_of g and ref_cat = cat_of g in
    List.iter
      (fun (name, q) ->
        let want =
          Reference.card (Reference.model ref_cat q) (Bitset.full (Query.num_vertices q))
        in
        Alcotest.(check int64)
          (Printf.sprintf "%s %s" what name)
          (Int64.bits_of_float want)
          (Int64.bits_of_float (Cost_model.estimate_cardinality cat q)))
      queries
  in
  List.iter
    (fun d ->
      check (Generators.dataset_name_to_string d) (Generators.dataset ~scale:0.02 d)
        benchmark_queries)
    Generators.[ Google; Amazon; Epinions ];
  let g = human () in
  check "human" g (human_templates g);
  let one, _ = Cypher.parse "MATCH (a)" in
  Alcotest.(check (float 0.0)) "MATCH (a)" 0.0 (Cost_model.estimate_cardinality (cat_of g) one)

(* Past 8 vertices the cardinality follows one removal chain; the
   database's estimate is the root estimate of the plan it runs. *)
let test_cardinality_large () =
  let rng = Rng.create 11 in
  List.iter
    (fun d ->
      let g = Generators.dataset ~scale:0.02 d in
      let db = Graphflow.Db.create ~z:300 g in
      List.iter
        (fun nv ->
          let q = Gf_baseline.Query_gen.from_data g rng ~num_vertices:nv ~dense:(nv mod 2 = 0) in
          let plan, _, model = Planner.search (Graphflow.Db.catalog db) q in
          let root, _ = (Gf_opt.Explain.estimates (Cost_model.uncorrected model) plan).ops.(0) in
          Alcotest.(check int64)
            (Printf.sprintf "%s, %d vertices" (Generators.dataset_name_to_string d) nv)
            (Int64.bits_of_float root)
            (Int64.bits_of_float (Graphflow.Db.estimate_cardinality db q)))
        [ 9; 10; 11 ])
    Generators.[ Amazon; Epinions ]

let suite =
  [
    ( "optimizer.reference",
      [
        Alcotest.test_case "Q1-Q14 on three graphs" `Slow test_benchmark_queries;
        Alcotest.test_case "EH-g ordering" `Quick test_best_wco_order;
        Alcotest.test_case "other costing options" `Slow test_other_opts;
        Alcotest.test_case "500 labeled templates" `Slow test_labeled_templates;
        Alcotest.test_case "replan under corrections" `Slow test_replan_under_corrections;
        Alcotest.test_case "estimates depend only on the pattern" `Slow
          test_estimates_depend_only_on_pattern;
        Alcotest.test_case "cardinality = reference" `Slow test_cardinality;
        Alcotest.test_case "cardinality above 8 vertices" `Slow test_cardinality_large;
      ] );
  ]
