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
  chain : Bitset.t array; (* root E/I chain prefixes, anchor first, self last *)
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

let neighbour_sets q = Array.init (Query.num_vertices q) (Query.neighbours q)

(* Vertices adjacent to [s] and outside it. *)
let frontier nbrs s =
  let f = ref Bitset.empty in
  Bitset.iter (fun u -> f := Bitset.union !f nbrs.(u)) s;
  Bitset.diff !f s

let prefixes_visited = Atomic.make 0
let wco_prefixes () = Atomic.get prefixes_visited

(* The cost of the ordering that starts at the first scan pair and always
   adds the cheapest next vertex (the lowest one on ties), summed as the
   walk below sums it: an upper bound on the cheapest ordering. *)
let greedy_cost model nbrs (e : Query.edge) =
  let m = Array.length nbrs in
  let chain = Array.make (m - 1) Bitset.empty in
  let subset = ref (Bitset.of_list [ e.src; e.dst ]) and cost = ref 0.0 and last = ref e.dst in
  chain.(0) <- !subset;
  try
    for depth = 2 to m - 1 do
      let best_v = ref (-1) and best_c = ref infinity in
      Bitset.iter
        (fun v ->
          let c = Cost_model.extension_cost model ~chain ~last:!last ~child:!subset ~v in
          if !best_v < 0 || c < !best_c then begin
            best_v := v;
            best_c := c
          end)
        (frontier nbrs !subset);
      if !best_v < 0 then raise Exit;
      cost := !cost +. !best_c;
      last := !best_v;
      subset := Bitset.add !best_v !subset;
      chain.(depth - 1) <- !subset
    done;
    !cost
  with Exit -> infinity

(* Depth-first walk over the prefix-connected orderings: scan pairs in
   [scan_pairs] order, each extended by ascending vertex. [visit subset cost
   order depth] sees every prefix of two or more vertices, which are
   [order.(0) .. order.(depth - 1)]; the array is reused, so [visit] copies
   what it keeps. The chain array holds the prefixes' vertex sets.

   With [~prune:true], a prefix costing strictly more than the cheapest
   complete ordering found so far (initially the greedy one) is neither
   visited nor extended. Cost terms are non-negative, so every prefix of
   an ordering that costs at most the optimum is still visited, in the same
   order: each vertex set whose cheapest ordering costs at most the optimum
   still sees that ordering first. *)
let enumerate_wco ~prune model q visit =
  let m = Query.num_vertices q in
  let nbrs = neighbour_sets q in
  let scans = scan_pairs q in
  let order = Array.make m 0 and chain = Array.make (max 1 (m - 1)) Bitset.empty in
  let bound =
    ref (match scans with e :: _ when prune -> greedy_cost model nbrs e | _ -> infinity)
  in
  let rec dfs depth subset front cost =
    Atomic.incr prefixes_visited;
    visit subset cost order depth;
    if depth = m then begin
      if prune && cost < !bound then bound := cost
    end
    else
      Bitset.iter
        (fun v ->
          let c =
            cost +. Cost_model.extension_cost model ~chain ~last:order.(depth - 1) ~child:subset ~v
          in
          if not (c > !bound) then begin
            let s' = Bitset.add v subset in
            order.(depth) <- v;
            chain.(depth - 1) <- s';
            dfs (depth + 1) s' (Bitset.diff (Bitset.union front nbrs.(v)) s') c
          end)
        front
  in
  List.iter
    (fun (e : Query.edge) ->
      let s0 = Bitset.of_list [ e.src; e.dst ] in
      order.(0) <- e.src;
      order.(1) <- e.dst;
      chain.(0) <- s0;
      dfs 2 s0 (frontier nbrs s0) 0.0)
    scans

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
  enumerate_wco ~prune:false model q (fun _ cost order depth ->
      if depth = m then acc := (Array.copy order, cost) :: !acc);
  List.rev !acc

let best_wco_order ?(cache_conscious = true) cat q =
  check_no_multi_pair q;
  let model = Cost_model.create ~cache_conscious cat q in
  let m = Query.num_vertices q in
  let best = ref None in
  enumerate_wco ~prune:true model q (fun _ cost order depth ->
      if depth = m then
        match !best with
        | Some (_, c) when not (cost < c) -> ()
        | _ -> best := Some (Array.copy order, cost));
  match !best with
  | Some b -> b
  | None -> raise (No_plan "no WCO ordering (query must have >= 2 vertices)")

(* [f] folded over the E/I operators of [order]'s WCO plan. *)
let fold_order ~cache_conscious cat q order f init =
  check_no_multi_pair q;
  let model = Cost_model.create ~cache_conscious cat q in
  let n = Array.length order in
  let chain = Array.make (max 1 (n - 1)) Bitset.empty in
  chain.(0) <- Bitset.of_list [ order.(0); order.(1) ];
  (* The scan binds its edge's destination last, whichever way [order]
     lists the pair. *)
  let scan = Plan.scan_edge q order.(0) order.(1) in
  let acc = ref init in
  for k = 2 to n - 1 do
    let child = chain.(k - 2) and last = if k = 2 then scan.Query.dst else order.(k - 1) in
    acc := f model ~chain ~last ~child ~v:order.(k) !acc;
    chain.(k - 1) <- Bitset.add order.(k) child
  done;
  !acc

let wco_order_cost ?(cache_conscious = true) cat q order =
  fold_order ~cache_conscious cat q order
    (fun m ~chain ~last ~child ~v acc -> acc +. Cost_model.extension_cost m ~chain ~last ~child ~v)
    0.0

let wco_order_features ?(cache_conscious = true) cat q order =
  fold_order ~cache_conscious cat q order
    (fun m ~chain ~last ~child ~v acc ->
      Cost.add acc (Cost_model.extension_features m ~chain ~last ~child ~v))
    Cost.zero

(* Connected vertex subsets grouped by size, each group in decreasing
   order. A set of two or more vertices is connected exactly when some
   member touches the rest and the rest is connected, so one pass in
   increasing order fills the table from smaller sets. *)
let connected_subsets nbrs =
  let m = Array.length nbrs in
  let conn = Array.make (Bitset.full m + 1) false in
  let by_size = Array.make (m + 1) [] in
  for s = 1 to Bitset.full m do
    let rec any r =
      r <> Bitset.empty
      &&
      let v = Bitset.min_elt r in
      let rest = Bitset.remove v s in
      (conn.(rest) && Bitset.inter nbrs.(v) rest <> Bitset.empty) || any (Bitset.remove v r)
    in
    if Bitset.cardinal s = 1 || any s then begin
      conn.(s) <- true;
      let k = Bitset.cardinal s in
      by_size.(k) <- s :: by_size.(k)
    end
  done;
  by_size

(* A HASH-JOIN of [s1] and [s2] meets the projection constraint when every
   edge induced on their union lies within one side: no edge joins a vertex
   only [s1] has to one only [s2] has. *)
let covered nbrs s1 s2 =
  let only2 = Bitset.diff s2 s1 in
  let rec ok r =
    r = Bitset.empty
    ||
    let v = Bitset.min_elt r in
    Bitset.inter nbrs.(v) only2 = Bitset.empty && ok (Bitset.remove v r)
  in
  ok (Bitset.diff s1 s2)

let chain_of_order order =
  let n = Array.length order in
  let chain = Array.make (n - 1) Bitset.empty in
  let acc = ref (Bitset.singleton order.(0)) in
  for i = 1 to n - 1 do
    acc := Bitset.add order.(i) !acc;
    chain.(i - 1) <- !acc
  done;
  chain

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
  let nbrs = neighbour_sets q in
  (* The DP table: an array indexed by vertex set when every subset is
     enumerated, a hash table of the kept entries in beam mode. *)
  let dense = m <= opts.beam_threshold in
  let slots = Array.make (if dense then 1 lsl m else 0) None in
  let table : (Bitset.t, info) Hashtbl.t = Hashtbl.create (if dense then 1 else 64) in
  let find s = if dense then slots.(s) else Hashtbl.find_opt table s in
  let store s info = if dense then slots.(s) <- Some info else Hashtbl.replace table s info in
  (* Level 2: scans. *)
  List.iter
    (fun (e : Query.edge) ->
      let s = Bitset.of_list [ e.src; e.dst ] in
      store s { plan = Plan.scan q e; cost = 0.0; chain = [| s |] })
    (scan_pairs q);
  (* Bounded WCO enumeration: the cheapest ordering of every vertex set
     whose cheapest ordering costs at most the cheapest complete one. A set
     it misses or mis-costs costs more than the WCO plan of the whole query
     however it is reached, so no plan containing it can be chosen. *)
  let best_wco : (Bitset.t, float * int array) Hashtbl.t = Hashtbl.create 64 in
  if opts.mode <> Bj_only && m <= opts.beam_threshold then begin
    (match trace with
    | Some tb -> Gf_obs.Trace.begin_span ~cat:"planner" tb "wco-enumeration"
    | None -> ());
    enumerate_wco ~prune:true model q (fun subset cost order depth ->
        if depth >= 3 then
          match Hashtbl.find_opt best_wco subset with
          | Some (c, _) when c <= cost -> ()
          | _ -> Hashtbl.replace best_wco subset (cost, Array.sub order 0 depth));
    match trace with
    | Some tb ->
        Gf_obs.Trace.end_span ~args:[ ("subsets", Gf_obs.Trace.Int (Hashtbl.length best_wco)) ] tb
    | None -> ()
  end;
  (* Full subset enumeration is 2^m: only for small queries. In beam mode
     (Section 4.4) level-k candidates are generated from the kept table
     entries instead — single-vertex extensions of kept (k-1)-subsets and
     unions of kept pairs. *)
  let by_size = if dense then Some (connected_subsets nbrs) else None in
  let beam_candidates k =
    let cands = Hashtbl.create 64 in
    Hashtbl.iter
      (fun s _ ->
        if Bitset.cardinal s = k - 1 then
          Bitset.iter (fun v -> Hashtbl.replace cands (Bitset.add v s) ()) (frontier nbrs s))
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
  (* A HASH-JOIN never costs less than its two inputs together when both
     weights are non-negative, so a pair already that expensive is skipped.
     Outside [Bj_only], every input's cardinality is estimated by case (ii)
     anyway, so skipping changes no estimate the search computes. *)
  let skip_dear =
    opts.mode <> Bj_only && opts.weights.Cost.w1 >= 0.0 && opts.weights.Cost.w2 >= 0.0
  in
  (match trace with
  | Some tb -> Gf_obs.Trace.begin_span ~cat:"planner" tb "dp-enumeration"
  | None -> ());
  for k = 3 to m do
    List.iter
      (fun s ->
        let best = ref None in
        (* Keep the first cheapest candidate; build its plan only if it
           leads. *)
        let offer cost make =
          match !best with Some b when b.cost <= cost -> () | _ -> best := Some (make cost)
        in
        (* (i) best enumerated WCO plan. *)
        (match Hashtbl.find_opt best_wco s with
        | Some (cost, order) ->
            offer cost (fun cost -> { plan = Plan.wco q order; cost; chain = chain_of_order order })
        | None -> ());
        (* (ii) extend a best sub-plan by one vertex. *)
        if opts.mode <> Bj_only then
          Bitset.iter
            (fun v ->
              let child = Bitset.remove v s in
              if Bitset.inter nbrs.(v) child <> Bitset.empty then
                match find child with
                | Some ci ->
                    let vars = Plan.vars ci.plan in
                    let last = vars.(Array.length vars - 1) in
                    offer
                      (ci.cost +. Cost_model.extension_cost model ~chain:ci.chain ~last ~child ~v)
                      (fun cost ->
                        {
                          plan = Plan.extend q ci.plan v;
                          cost;
                          chain = Array.append ci.chain [| s |];
                        })
                | None -> ())
            s;
        (* (iii) hash join two best sub-plans. *)
        let join s1 i1 s2 i2 =
          let dear =
            skip_dear
            && match !best with Some b -> i1.cost +. i2.cost >= b.cost | None -> false
          in
          if not dear then begin
            let new1 = Bitset.diff s1 s2 and new2 = Bitset.diff s2 s1 in
            let convertible = Bitset.cardinal new1 <= 1 || Bitset.cardinal new2 <= 1 in
            if (opts.mode = Bj_only || not convertible) && covered nbrs s1 s2 then begin
              (* Build on the smaller estimated side. *)
              let c1 = Cost_model.card model s1 and c2 = Cost_model.card model s2 in
              let build, probe, bi, pi =
                if c1 <= c2 then (s1, s2, i1, i2) else (s2, s1, i2, i1)
              in
              offer
                (bi.cost +. pi.cost +. Cost_model.hash_join_cost model build probe)
                (fun cost -> { plan = Plan.hash_join q bi.plan pi.plan; cost; chain = [| s |] })
            end
          end
        in
        (* In beam mode the submask walk below would be 2^k per subset; the
           kept table is tiny, so enumerate pairs of kept entries instead. *)
        if opts.mode <> Wco_only && not dense then
          Hashtbl.iter
            (fun s1 i1 ->
              if Bitset.subset s1 s && s1 <> s then
                Hashtbl.iter
                  (fun s2 i2 ->
                    if
                      Bitset.union s1 s2 = s && s2 <> s
                      && Bitset.inter s1 s2 <> Bitset.empty
                    then join s1 i1 s2 i2)
                  table)
            table
        else if opts.mode <> Wco_only then
          Bitset.fold_proper_nonempty_subsets
            (fun s1 () ->
              match find s1 with
              | None -> ()
              | Some i1 ->
                  (* Overlap O: any nonempty subset of s1; s2 = rest U O. *)
                  let rest = Bitset.diff s s1 and o = ref s1 in
                  while !o <> Bitset.empty do
                    let s2 = Bitset.union rest !o in
                    (if s2 <> s then
                       match find s2 with Some i2 -> join s1 i1 s2 i2 | None -> ());
                    o := (!o - 1) land s1
                  done)
            s ();
        match !best with Some info -> store s info | None -> ())
      (subsets_at k);
    (* Beam pruning for very large queries (Section 4.4). *)
    if (not dense) && k < m then begin
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
      let entries =
        if dense then Array.fold_left (fun n e -> if e = None then n else n + 1) 0 slots
        else Hashtbl.length table
      in
      Gf_obs.Trace.end_span ~args:[ ("table", Gf_obs.Trace.Int entries) ] tb
  | None -> ());
  match find (Bitset.full m) with
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

let rec chain_of_plan = function
  | Plan.Extend { child; _ } as p -> Array.append (chain_of_plan child) [| Plan.var_set p |]
  | p -> [| Plan.var_set p |]

let rec plan_cost model = function
  | Plan.Scan _ -> 0.0
  | Plan.Extend { child; target; _ } ->
      let vars = Plan.vars child in
      plan_cost model child
      +. Cost_model.extension_cost model ~chain:(chain_of_plan child)
           ~last:vars.(Array.length vars - 1) ~child:(Plan.var_set child) ~v:target
  | Plan.Hash_join { build; probe; _ } ->
      plan_cost model build +. plan_cost model probe
      +. Cost_model.hash_join_cost model (Plan.var_set build) (Plan.var_set probe)

let plan ?opts ?trace ?corrections cat q =
  let p, cost, _ = search ?opts ?trace ?corrections cat q in
  (p, cost)
