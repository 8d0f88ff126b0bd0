module Bitset = Gf_util.Bitset
module Query = Gf_query.Query
module Plan = Gf_plan.Plan
module Catalog = Gf_catalog.Catalog

type mode = Hybrid | Wco_only | Bj_only

type opts = {
  mode : mode;
  cache_conscious : bool;
  weights : Cost.weights;
  beam_threshold : int;
  beam_width : int;
}

let default_opts =
  {
    mode = Hybrid;
    cache_conscious = true;
    weights = Cost.default_weights;
    beam_threshold = 8;
    beam_width = 5;
  }

exception No_plan of string

type info = {
  plan : Plan.t;
  cost : float;
  chain : Bitset.t list; (* root E/I chain prefixes, anchor first, self last *)
}

(* Scan start pairs: one per unordered vertex pair carrying an edge. *)
let scan_pairs q =
  let seen = Hashtbl.create 8 in
  Array.to_list q.Query.edges
  |> List.filter (fun (e : Query.edge) ->
         let key = (min e.src e.dst, max e.src e.dst) in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.replace seen key ();
           true
         end)

(* Depth-first enumeration of all prefix-connected orderings, calling
   [record subset cost chain order_rev] at every prefix of size >= 2. *)
let enumerate_wco model q record =
  let m = Query.num_vertices q in
  let rec dfs subset chain_rev cost order_rev =
    record subset cost (List.rev chain_rev) order_rev;
    if Bitset.cardinal subset < m then
      for v = 0 to m - 1 do
        if
          (not (Bitset.mem v subset))
          && Bitset.inter (Query.neighbours q v) subset <> Bitset.empty
        then begin
          let s' = Bitset.add v subset in
          let c =
            cost
            +. Cost_model.extension_icost model ~chain:(List.rev chain_rev) ~child:subset ~v
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

let check_no_multi_pair q =
  if List.length (scan_pairs q) <> Array.length q.Query.edges then
    raise
      (No_plan
         "queries with parallel or anti-parallel edges between a vertex pair are not supported \
          by the planner")

let all_wco_orders ?(cache_conscious = true) cat q =
  check_no_multi_pair q;
  let model = Cost_model.create ~cache_conscious cat q in
  let m = Query.num_vertices q in
  let acc = ref [] in
  enumerate_wco model q (fun subset cost _chain order_rev ->
      if Bitset.cardinal subset = m then
        acc := (Array.of_list (List.rev order_rev), cost) :: !acc);
  List.rev !acc

let best_wco_order ?cache_conscious cat q =
  match all_wco_orders ?cache_conscious cat q with
  | [] -> raise (No_plan "no WCO ordering (query must have >= 2 vertices)")
  | first :: rest ->
      List.fold_left (fun (bo, bc) (o, c) -> if c < bc then (o, c) else (bo, bc)) first rest

let wco_order_cost ?(cache_conscious = true) cat q order =
  check_no_multi_pair q;
  let model = Cost_model.create ~cache_conscious cat q in
  let cost = ref 0.0 in
  let subset = ref (Bitset.of_list [ order.(0); order.(1) ]) in
  let chain = ref [ !subset ] in
  for k = 2 to Array.length order - 1 do
    let v = order.(k) in
    cost := !cost +. Cost_model.extension_icost model ~chain:(List.rev !chain) ~child:!subset ~v;
    subset := Bitset.add v !subset;
    chain := !subset :: !chain
  done;
  !cost

(* Enumerate connected subsets of the query's vertices, grouped by size. *)
let connected_subsets q =
  let m = Query.num_vertices q in
  let by_size = Array.make (m + 1) [] in
  for s = 1 to Bitset.full m do
    if Query.is_connected_subset q s then begin
      let k = Bitset.cardinal s in
      by_size.(k) <- s :: by_size.(k)
    end
  done;
  by_size

let search ?(opts = default_opts) ?trace ?corrections cat q =
  check_no_multi_pair q;
  let m = Query.num_vertices q in
  if m < 2 then raise (No_plan "queries need at least 2 vertices");
  (* Raising paths below (No_plan) bypass the end_span; the trace owner
     closes dangling spans at export, so a failed optimization still shows
     as an open-ended [optimize] span rather than corrupting the trace. *)
  (match trace with
  | Some tb ->
      Gf_obs.Trace.begin_span ~cat:"planner"
        ~args:[ ("vertices", Gf_obs.Trace.Int m); ("edges", Int (Query.num_edges q)) ]
        tb "optimize"
  | None -> ());
  let model =
    Cost_model.create ~cache_conscious:opts.cache_conscious ~weights:opts.weights
      ?corrections cat q
  in
  let table : (Bitset.t, info) Hashtbl.t = Hashtbl.create 64 in
  (* Level 2: scans. *)
  List.iter
    (fun (e : Query.edge) ->
      let s = Bitset.of_list [ e.src; e.dst ] in
      Hashtbl.replace table s { plan = Plan.scan q e; cost = 0.0; chain = [ s ] })
    (scan_pairs q);
  (* Exhaustive WCO enumeration: best cost and ordering per subset. *)
  let best_wco : (Bitset.t, float * int list) Hashtbl.t = Hashtbl.create 64 in
  if opts.mode <> Bj_only && m <= opts.beam_threshold then begin
    (match trace with
    | Some tb -> Gf_obs.Trace.begin_span ~cat:"planner" tb "wco-enumeration"
    | None -> ());
    enumerate_wco model q (fun subset cost _chain order_rev ->
        match Hashtbl.find_opt best_wco subset with
        | Some (c, _) when c <= cost -> ()
        | _ -> Hashtbl.replace best_wco subset (cost, order_rev));
    match trace with
    | Some tb ->
        Gf_obs.Trace.end_span ~args:[ ("subsets", Gf_obs.Trace.Int (Hashtbl.length best_wco)) ] tb
    | None -> ()
  end;
  (* Full subset enumeration is 2^m: only for small queries. In beam mode
     (Section 4.4) level-k candidates are generated from the kept table
     entries instead — single-vertex extensions of kept (k-1)-subsets and
     unions of kept pairs. *)
  let by_size = if m <= opts.beam_threshold then Some (connected_subsets q) else None in
  let beam_candidates k =
    let cands = Hashtbl.create 64 in
    Hashtbl.iter
      (fun s _ ->
        if Bitset.cardinal s = k - 1 then
          for v = 0 to m - 1 do
            if
              (not (Bitset.mem v s))
              && Bitset.inter (Query.neighbours q v) s <> Bitset.empty
            then Hashtbl.replace cands (Bitset.add v s) ()
          done)
      table;
    Hashtbl.iter
      (fun s1 _ ->
        Hashtbl.iter
          (fun s2 _ ->
            let u = Bitset.union s1 s2 in
            if Bitset.cardinal u = k && Bitset.inter s1 s2 <> Bitset.empty then
              Hashtbl.replace cands u ())
          table)
      table;
    Hashtbl.fold (fun s () acc -> s :: acc) cands []
  in
  let subsets_at k = match by_size with Some a -> a.(k) | None -> beam_candidates k in
  let consider s best candidate =
    match candidate with
    | None -> best
    | Some info -> (
        match best with Some b when b.cost <= info.cost -> best | _ -> ignore s; Some info)
  in
  (match trace with
  | Some tb -> Gf_obs.Trace.begin_span ~cat:"planner" tb "dp-enumeration"
  | None -> ());
  for k = 3 to m do
    List.iter
      (fun s ->
        let best = ref None in
        (* (i) best enumerated WCO plan. *)
        (match Hashtbl.find_opt best_wco s with
        | Some (cost, order_rev) ->
            let order = Array.of_list (List.rev order_rev) in
            let p = Plan.wco q order in
            let chain = ref [] in
            let acc = ref Bitset.empty in
            Array.iteri
              (fun i v ->
                acc := Bitset.add v !acc;
                if i >= 1 then chain := !acc :: !chain)
              order;
            best := consider s !best (Some { plan = p; cost; chain = List.rev !chain })
        | None -> ());
        (* (ii) extend a best sub-plan by one vertex. *)
        if opts.mode <> Bj_only then
          Bitset.iter
            (fun v ->
              let child = Bitset.remove v s in
              if Bitset.inter (Query.neighbours q v) child <> Bitset.empty then
                match Hashtbl.find_opt table child with
                | Some ci ->
                    let c =
                      ci.cost +. Cost_model.extension_icost model ~chain:ci.chain ~child ~v
                    in
                    best :=
                      consider s !best
                        (Some
                           {
                             plan = Plan.extend q ci.plan v;
                             cost = c;
                             chain = ci.chain @ [ s ];
                           })
                | None -> ())
            s;
        (* (iii) hash join two best sub-plans. In beam mode the submask walk
           below would be 2^k per subset; the kept table is tiny, so
           enumerate pairs of kept entries instead. *)
        if opts.mode <> Wco_only && m > opts.beam_threshold then
          Hashtbl.iter
            (fun s1 i1 ->
              if Bitset.subset s1 s && s1 <> s then
                Hashtbl.iter
                  (fun s2 i2 ->
                    if
                      Bitset.union s1 s2 = s && s2 <> s
                      && Bitset.inter s1 s2 <> Bitset.empty
                    then begin
                      let new1 = Bitset.diff s1 s2 and new2 = Bitset.diff s2 s1 in
                      let convertible = Bitset.cardinal new1 <= 1 || Bitset.cardinal new2 <= 1 in
                      if (opts.mode = Bj_only) || not convertible then begin
                        let covered =
                          List.for_all
                            (fun (e : Query.edge) ->
                              (Bitset.mem e.src s1 && Bitset.mem e.dst s1)
                              || (Bitset.mem e.src s2 && Bitset.mem e.dst s2))
                            (Query.edges_within q s)
                        in
                        if covered then begin
                          let c1 = Cost_model.card model s1 and c2 = Cost_model.card model s2 in
                          let build, probe, bi, pi =
                            if c1 <= c2 then (s1, s2, i1, i2) else (s2, s1, i2, i1)
                          in
                          let cost =
                            bi.cost +. pi.cost +. Cost_model.hash_join_cost model build probe
                          in
                          best :=
                            consider s !best
                              (Some
                                 { plan = Plan.hash_join q bi.plan pi.plan; cost; chain = [ s ] })
                        end
                      end
                    end)
                  table)
            table
        else if opts.mode <> Wco_only then
          Bitset.fold_proper_nonempty_subsets
            (fun s1 () ->
              match Hashtbl.find_opt table s1 with
              | None -> ()
              | Some i1 ->
                  let rest = Bitset.diff s s1 in
                  if rest <> Bitset.empty then
                    (* Overlap O: any nonempty subset of s1; s2 = rest U O. *)
                    let consider_pair o =
                      let s2 = Bitset.union rest o in
                      if s2 <> s then
                        match Hashtbl.find_opt table s2 with
                        | None -> ()
                        | Some i2 ->
                            let new1 = Bitset.diff s1 s2 and new2 = Bitset.diff s2 s1 in
                            let convertible =
                              Bitset.cardinal new1 <= 1 || Bitset.cardinal new2 <= 1
                            in
                            if (opts.mode = Bj_only) || not convertible then begin
                              (* Projection constraint coverage: every induced
                                 edge must lie within one child. *)
                              let covered =
                                List.for_all
                                  (fun (e : Query.edge) ->
                                    (Bitset.mem e.src s1 && Bitset.mem e.dst s1)
                                    || (Bitset.mem e.src s2 && Bitset.mem e.dst s2))
                                  (Query.edges_within q s)
                              in
                              if covered then begin
                                (* Build on the smaller estimated side. *)
                                let c1 = Cost_model.card model s1
                                and c2 = Cost_model.card model s2 in
                                let build, probe, bi, pi =
                                  if c1 <= c2 then (s1, s2, i1, i2) else (s2, s1, i2, i1)
                                in
                                let cost =
                                  bi.cost +. pi.cost
                                  +. Cost_model.hash_join_cost model build probe
                                in
                                best :=
                                  consider s !best
                                    (Some
                                       {
                                         plan = Plan.hash_join q bi.plan pi.plan;
                                         cost;
                                         chain = [ s ];
                                       })
                              end
                            end
                    in
                    let o = ref s1 in
                    let continue = ref true in
                    while !continue do
                      consider_pair !o;
                      if !o = Bitset.empty then continue := false
                      else begin
                        o := (!o - 1) land s1;
                        if !o = Bitset.empty then continue := false else ()
                      end
                    done)
            s ();
        match !best with
        | Some info -> Hashtbl.replace table s info
        | None -> ())
      (subsets_at k);
    (* Beam pruning for very large queries (Section 4.4). *)
    if m > opts.beam_threshold && k < m then begin
      let level = ref [] in
      Hashtbl.iter
        (fun s i -> if Bitset.cardinal s = k then level := (s, i) :: !level)
        table;
      let sorted = List.sort (fun (_, a) (_, b) -> compare a.cost b.cost) !level in
      List.iteri (fun i (s, _) -> if i >= opts.beam_width then Hashtbl.remove table s) sorted
    end
  done;
  (match trace with
  | Some tb ->
      Gf_obs.Trace.end_span ~args:[ ("table", Gf_obs.Trace.Int (Hashtbl.length table)) ] tb
  | None -> ());
  match Hashtbl.find_opt table (Bitset.full m) with
  | Some info ->
      (match trace with
      | Some tb -> Gf_obs.Trace.end_span ~args:[ ("cost", Gf_obs.Trace.Float info.cost) ] tb
      | None -> ());
      (info.plan, info.cost, model)
  | None ->
      raise
        (No_plan
           (Printf.sprintf "plan space '%s' contains no plan for this query"
              (match opts.mode with Hybrid -> "hybrid" | Wco_only -> "wco" | Bj_only -> "bj")))

let plan ?opts ?trace ?corrections cat q =
  let p, cost, _ = search ?opts ?trace ?corrections cat q in
  (p, cost)
