module Bitset = Gf_util.Bitset
module Query = Gf_query.Query
module Catalog = Gf_catalog.Catalog
module Plan = Gf_plan.Plan

(* The lists intersected when extending a vertex set by one vertex, one
   per {!Plan.descriptors} entry: each one's source vertex and
   statistics, and the work of intersecting all of them. *)
type ext = { src : int array; sizes : float array; stats : Catalog.stat array; all : Catalog.work }

type t = {
  cat : Catalog.t;
  q : Query.t;
  cache_conscious : bool;
  weights : Cost.weights;
  corrections : (Bitset.t -> float) option;
  nbrs : Bitset.t array; (* vertex -> its neighbours in [q], any direction *)
  conn : Bytes.t; (* vertex set -> connected? 'y' / 'n' / unknown; empty if too many sets *)
  cards : (int, float) Hashtbl.t;
  mus : (int * int, float) Hashtbl.t;
  exts : (int * int, ext) Hashtbl.t; (* (child_set, v) -> its lists' statistics *)
  card_slots : float array; (* vertex set -> [cards] entry, nan unknown; empty if too many sets *)
  views : (int * int, int array * Catalog.extension) Hashtbl.t;
      (* (old part, v) -> its descriptors' sources and the catalogue's
         view of the extension, for at most h + 1 vertices *)
  induced : (int, Query.t) Hashtbl.t; (* vertex set -> induced sub-query *)
  link : int array;
      (* [a * m + b] -> the edge between [a] and [b]: 2 * label from [a],
         2 * label + 1 into [a], -1 none (one edge per pair, as planned) *)
}

(* Queries of up to this many vertices memoize cardinalities in an array
   indexed by vertex set, ahead of the table: the search reads them once
   per ordering prefix and HASH-JOIN pair. 2^8 floats still fit the minor
   heap, so creating a model allocates nothing in the major one. *)
let slot_vertices = 8

let create ?(cache_conscious = true) ?(weights = Cost.default_weights) ?corrections
    cat q =
  {
    cat;
    q;
    cache_conscious;
    weights;
    corrections;
    nbrs = Array.init (Query.num_vertices q) (Query.neighbours q);
    conn =
      (let m = Query.num_vertices q in
       if m <= 16 then Bytes.make (1 lsl m) '?' else Bytes.empty);
    cards = Hashtbl.create 64;
    mus = Hashtbl.create 64;
    exts = Hashtbl.create 64;
    card_slots =
      (let m = Query.num_vertices q in
       if m <= slot_vertices then Array.make (1 lsl m) nan else [||]);
    views = Hashtbl.create 64;
    induced = Hashtbl.create 64;
    link =
      (let m = Query.num_vertices q in
       let a = Array.make (m * m) (-1) in
       Array.iter
         (fun (e : Query.edge) ->
           a.((e.src * m) + e.dst) <- 2 * e.label;
           a.((e.dst * m) + e.src) <- (2 * e.label) + 1)
         q.Query.edges;
       a);
  }

let query t = t.q
let cache_conscious t = t.cache_conscious
let weights t = t.weights
let uncorrected t = { t with corrections = None }

let work t = Hashtbl.length t.cards + Hashtbl.length t.mus + Hashtbl.length t.exts

(* Whether [s] induces a connected sub-query, memoized per vertex set for
   queries small enough to index every set. *)
let connected t s =
  let compute () =
    s <> Bitset.empty
    &&
    let rec grow seen =
      let next = ref seen in
      Bitset.iter (fun u -> next := Bitset.union !next (Bitset.inter t.nbrs.(u) s)) seen;
      if !next = seen then seen = s else grow !next
    in
    grow (Bitset.singleton (Bitset.min_elt s))
  in
  if Bytes.length t.conn = 0 then compute ()
  else
    match Bytes.get t.conn s with
    | 'y' -> true
    | 'n' -> false
    | _ ->
        let c = compute () in
        Bytes.set t.conn s (if c then 'y' else 'n');
        c

(* The sub-query induced on [s], built once per vertex set. Its vertex [i]
   is the [i]-th smallest member of [s], so [rank s v] is [v]'s index. *)
let induced t s =
  match Hashtbl.find_opt t.induced s with
  | Some sub -> sub
  | None ->
      let sub, _ = Query.induced t.q s in
      Hashtbl.replace t.induced s sub;
      sub

let rank s v = Bitset.cardinal (Bitset.inter s ((1 lsl v) - 1))
let small t s = Bitset.cardinal s <= Catalog.h t.cat + 1

(* The descriptors of extending [child] by [v], in the order of [q]'s
   edges, and each one's source vertex. *)
let descriptors t ~child ~v =
  let sources = Bitset.to_array child in
  let ds = Plan.descriptors t.q sources v in
  (ds, Array.map (fun (d : Plan.descriptor) -> sources.(d.pos)) ds)

(* The catalogue entry of extending [old] by [v] (at most h + 1 vertices),
   looked up once per query: its mu and its lists' statistics. *)
let view t ~old ~v =
  match Hashtbl.find_opt t.views (old, v) with
  | Some x -> x
  | None ->
      let s = Bitset.add v old in
      let ds, src = descriptors t ~child:old ~v in
      let x =
        ( src,
          Catalog.descriptor_stats t.cat (induced t s) ~new_vertex:(rank s v)
            (Array.mapi (fun i (d : Plan.descriptor) -> (rank s src.(i), d.dir, d.elabel)) ds) )
      in
      Hashtbl.replace t.views (old, v) x;
      x

(* The catalogue selectivity of an extension to at most h + 1 vertices. *)
let base t ~child ~v = Option.get (snd (view t ~old:child ~v)).mu

(* The global label averages of those lists' sizes: an extension to more
   than h + 1 vertices has no catalogue entry. *)
let global_sizes t ~v ds src =
  Array.mapi
    (fun i (d : Plan.descriptor) ->
      Catalog.avg_partition_size t.cat ~dir:d.dir ~slabel:(Query.vlabel t.q src.(i))
        ~elabel:d.elabel ~nlabel:(Query.vlabel t.q v))
    ds

(* Every h-vertex part of [old] that Section 5.2's removals of |old| - h
   vertices leave, in a fixed order. *)
let parts t old =
  let members = Bitset.to_array old in
  let want = Array.length members - Catalog.h t.cat in
  let acc = ref [] in
  let rec choose picked count start =
    if count = want then acc := Bitset.diff old picked :: !acc
    else
      for i = start to Array.length members - 1 do
        choose (Bitset.add members.(i) picked) (count + 1) (i + 1)
      done
  in
  choose Bitset.empty 0 0;
  !acc

(* The minimum of [base] over those parts. *)
let min_over_removals t ~old ~base =
  List.fold_left
    (fun best rest -> match base rest with Some m when m < best -> m | _ -> best)
    infinity (parts t old)

(* Section 5.2's fallback for an extension to more than h + 1 vertices: the
   least catalogue selectivity over the query's own (h + 1)-vertex
   sub-patterns that keep [v] and a connected old part it touches. *)
let fallback t ~child ~v =
  let best =
    min_over_removals t ~old:child ~base:(fun rest ->
        if Bitset.inter t.nbrs.(v) rest <> Bitset.empty && connected t rest then
          Some (base t ~child:rest ~v)
        else None)
  in
  if best < infinity then best
  else
    (* No valid removal: the least global average list size, a coarse
       upper bound. *)
    let ds, src = descriptors t ~child ~v in
    let m = Array.fold_left Float.min infinity (global_sizes t ~v ds src) in
    if m = infinity then 1.0 else m

(* Past h + 1 vertices, the work of each list of [src] as the varying one:
   the least over the (h + 1)-vertex sub-patterns of [v] and h of its
   neighbours in [child], connected, that hold the list's source, step
   work first, as Section 5.2 takes the least selectivity. Those parts
   are the query's own, so the value does not depend on how the query
   numbers its vertices; a list with none keeps the analytic work. Each
   part is looked up once for all of its lists. *)
let part_stats t ~child ~v src =
  let n = Array.length src in
  let best = Array.make n None and step = Array.make n infinity and stable = Array.make n infinity in
  let near = Bitset.inter t.nbrs.(v) child in
  List.iter
    (fun old ->
      if connected t old then begin
        let psrc, x = view t ~old ~v in
        Array.iteri
          (fun j u ->
            let st = x.stats.(j) in
            let i = ref 0 in
            while src.(!i) <> u do
              incr i
            done;
            let i = !i in
            let ps = Cost.price_work st.step and pt = Cost.price_work st.stable in
            if ps < step.(i) || (ps = step.(i) && pt < stable.(i)) then begin
              best.(i) <- Some st;
              step.(i) <- ps;
              stable.(i) <- pt
            end)
          psrc
      end)
    (if Bitset.cardinal near < Catalog.h t.cat then [] else parts t near);
  best

(* The lists intersected when extending [child] by [v]. Past h + 1
   vertices, sizes are the global label averages, read without inducing
   the pattern, and the intersection work {!Catalog.analytic}'s on them,
   except each list's own step and stable work as the varying list
   ({!part_stats}), so that the list's direction and its hubs' bitmap rows
   still count. *)
let ext_of t ~child ~v =
  if small t (Bitset.add v child) then begin
    let src, x = view t ~old:child ~v in
    { src; sizes = Array.map (fun (st : Catalog.stat) -> st.size) x.stats; stats = x.stats; all = x.all }
  end
  else begin
    let ds, src = descriptors t ~child ~v in
    let stats, all = Catalog.analytic (global_sizes t ~v ds src) in
    let own = part_stats t ~child ~v src in
    let stats =
      Array.mapi
        (fun i (st : Catalog.stat) ->
          match own.(i) with
          | Some (o : Catalog.stat) -> { st with step = o.step; stable = o.stable }
          | None -> st)
        stats
    in
    { src; sizes = Array.map (fun (st : Catalog.stat) -> st.size) stats; stats; all }
  end

let mu t ~child ~v =
  match Hashtbl.find_opt t.mus (child, v) with
  | Some m -> m
  | None ->
      let m =
        if small t (Bitset.add v child) then base t ~child ~v else fallback t ~child ~v
      in
      Hashtbl.replace t.mus (child, v) m;
      m

(* Raw catalogue-derived estimate, before feedback corrections. The
   recursion composes raw values only: a learned correction for subset [s]
   is the observed ratio actual/raw-estimate, so it must scale the raw
   estimate exactly once, at the point of use. *)
let rec raw_card t s =
  let slot = Array.length t.card_slots > 0 in
  if slot && not (Float.is_nan (Array.unsafe_get t.card_slots s)) then Array.unsafe_get t.card_slots s
  else
  match Hashtbl.find_opt t.cards s with
  | Some c -> c
  | None ->
      let c =
        if Bitset.cardinal s < 2 then invalid_arg "Cost_model.card: need >= 2 vertices"
        else if Bitset.cardinal s = 2 then begin
          match Query.edges_within t.q s with
          | [] -> invalid_arg "Cost_model.card: 2-set without an edge"
          | es ->
              List.fold_left
                (fun acc (e : Query.edge) ->
                  Float.min acc
                    (float_of_int
                       (Catalog.edge_count t.cat ~elabel:e.label
                          ~slabel:(Query.vlabel t.q e.src)
                          ~dlabel:(Query.vlabel t.q e.dst))))
                infinity es
        end
        else begin
          (* Minimize over the last-extended vertex (Section 5.2's "pick a
             WCO plan", strengthened to a min). For big subsets the full
             minimization explores an exponential lattice, so beyond 8
             vertices only the first valid removal chain is followed — the
             paper's single-plan estimate. *)
          let exhaustive = Bitset.cardinal s <= 8 in
          let best = ref infinity in
          (try
             Bitset.iter
               (fun v ->
                 let rest = Bitset.remove v s in
                 if Bitset.inter t.nbrs.(v) rest <> Bitset.empty && connected t rest then begin
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
      if slot then t.card_slots.(s) <- c;
      c

let card t s =
  let c = raw_card t s in
  match t.corrections with None -> c | Some f -> c *. f s

let estimate_cardinality cat q =
  let n = Query.num_vertices q in
  if n < 2 || not (Query.is_connected q) then 0.0 else card (create cat q) (Bitset.full n)

let ext t ~child ~v =
  match Hashtbl.find_opt t.exts (child, v) with
  | Some x -> x
  | None ->
      let x = ext_of t ~child ~v in
      Hashtbl.replace t.exts (child, v) x;
      x

let descriptor_sizes t ~child ~v = (ext t ~child ~v).sizes

let total_descriptor_size t ~child ~v = Array.fold_left ( +. ) 0.0 (descriptor_sizes t ~child ~v)

(* The smallest chain prefix holding every vertex of [sources]; [child]
   when none does. Consecutive tuples share that prefix's bindings, so at
   most card(prefix) distinct intersections over those sources run. *)
let cover ~chain ~child sources =
  let i = ref 0 in
  while !i < Array.length chain && not (Bitset.subset sources chain.(!i)) do
    incr i
  done;
  if !i = Array.length chain then child else chain.(!i)

let extension_icost t ~chain ~child ~v =
  let sources = Bitset.inter t.nbrs.(v) child in
  if sources = Bitset.empty then invalid_arg "Cost_model.extension_icost: no descriptors";
  let multiplier =
    if t.cache_conscious then Float.min (card t (cover ~chain ~child sources)) (card t child)
    else card t child
  in
  multiplier *. total_descriptor_size t ~child ~v

(* Whether the E/I that bound [u] from [p] has the descriptors an
   extension of [p + u] by [v] takes from [p], with [v]'s label: [S] is
   then each of its runs' candidate slice. *)
let twins t p u v =
  Query.vlabel t.q u = Query.vlabel t.q v
  &&
  let m = Array.length t.nbrs in
  let r = ref p in
  while !r <> Bitset.empty && t.link.((Bitset.min_elt !r * m) + u) = t.link.((Bitset.min_elt !r * m) + v) do
    r := Bitset.remove (Bitset.min_elt !r) !r
  done;
  !r = Bitset.empty

(* The index of [last]'s list among [x]'s, the varying one, or -1. *)
let varying x last =
  let n = Array.length x.src in
  let i = ref 0 in
  while !i < n && x.src.(!i) <> last do
    incr i
  done;
  if !i = n then -1 else !i

(* How many times [S], the intersection of [ns] stable lists, is
   computed: never for one list, read in place, or when it is each run's
   own candidate slice; else once per distinct binding of its sources. *)
let s_count t ~chain ~last ~child ~v ~ns ~tuples =
  if ns < 2 then 0.0
  else begin
    let i = ref 0 in
    while !i < Array.length chain && chain.(!i) <> child do
      incr i
    done;
    if !i >= 1 && !i < Array.length chain && twins t chain.(!i - 1) last v then 0.0
    else if t.cache_conscious then
      Float.min tuples
        (card t (cover ~chain ~child (Bitset.remove last (Bitset.inter t.nbrs.(v) child))))
    else tuples
  end

let ext_checked t ~child ~v =
  let x = ext t ~child ~v in
  if Array.length x.src = 0 then invalid_arg "Cost_model.extension_cost: no descriptors";
  x

let extension_features t ~chain ~last ~child ~v =
  let x = ext_checked t ~child ~v and tuples = card t child in
  let vi = varying x last in
  let ns = Array.length x.src - if vi < 0 then 0 else 1 in
  let per = s_count t ~chain ~last ~child ~v ~ns ~tuples in
  let s work = { (Cost.work per work) with intersections = per } in
  if vi < 0 then Cost.add { Cost.zero with tuples } (s x.all)
  else if ns = 0 then { Cost.zero with tuples }
  else
    let st = x.stats.(vi) in
    Cost.add { (Cost.work tuples st.step) with candidates = tuples } (s st.stable)

(* {!extension_features} at {!Cost.price}, summed without building them:
   the planner calls this once per ordering prefix. *)
let extension_cost t ~chain ~last ~child ~v =
  let x = ext_checked t ~child ~v and tuples = card t child in
  let k = Cost.kernel in
  let vi = varying x last in
  let ns = Array.length x.src - if vi < 0 then 0 else 1 in
  let per = s_count t ~chain ~last ~child ~v ~ns ~tuples in
  let s work = if per = 0.0 then 0.0 else per *. (k.intersections +. Cost.price_work work) in
  if vi < 0 then (tuples *. k.tuples) +. s x.all
  else if ns = 0 then tuples *. k.tuples
  else
    let st = x.stats.(vi) in
    (tuples *. (k.candidates +. Cost.price_work st.step)) +. s st.stable

let hash_join_cost t s1 s2 =
  (t.weights.Cost.w1 *. card t s1) +. (t.weights.Cost.w2 *. card t s2)
