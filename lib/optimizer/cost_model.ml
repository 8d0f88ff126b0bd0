module Bitset = Gf_util.Bitset
module Query = Gf_query.Query
module Catalog = Gf_catalog.Catalog
module Plan = Gf_plan.Plan

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
  sizes : (int * int, float array) Hashtbl.t; (* (child_set, v) -> descriptor sizes *)
  bases : (int * int, float) Hashtbl.t; (* catalogue mu of extensions to <= h + 1 vertices *)
  induced : (int, Query.t) Hashtbl.t; (* vertex set -> induced sub-query *)
}

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
    sizes = Hashtbl.create 64;
    bases = Hashtbl.create 64;
    induced = Hashtbl.create 64;
  }

let query t = t.q
let cache_conscious t = t.cache_conscious
let weights t = t.weights
let uncorrected t = { t with corrections = None }

let work t = Hashtbl.length t.cards + Hashtbl.length t.mus + Hashtbl.length t.sizes

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

(* The catalogue selectivity of an extension to at most h + 1 vertices. *)
let base t ~child ~v =
  match Hashtbl.find_opt t.bases (child, v) with
  | Some m -> m
  | None ->
      let s = Bitset.add v child in
      let m = (Option.get (Catalog.entry t.cat (induced t s) ~new_vertex:(rank s v))).mu in
      Hashtbl.replace t.bases (child, v) m;
      m

(* The estimated size of each list intersected when extending [child] by
   [v], in the order of [q]'s edges. An extension to more than h + 1
   vertices has no catalogue entry, so its sizes are the global label
   averages, read without inducing the pattern. *)
let sizes_of t ~child ~v =
  let s = Bitset.add v child and sources = Bitset.to_array child in
  let size =
    if small t s then begin
      let sub = induced t s and vpos = rank s v in
      fun ~src ~dir ~elabel ->
        Catalog.descriptor_size t.cat sub ~new_vertex:vpos ~src:(rank s src) ~dir ~elabel
    end
    else fun ~src ~dir ~elabel ->
      Catalog.avg_partition_size t.cat ~dir ~slabel:(Query.vlabel t.q src) ~elabel
        ~nlabel:(Query.vlabel t.q v)
  in
  Array.map
    (fun (d : Plan.descriptor) -> size ~src:sources.(d.pos) ~dir:d.dir ~elabel:d.elabel)
    (Plan.descriptors t.q sources v)

(* Section 5.2's removals: every set of |old| - h old vertices, in a fixed
   order, and the minimum of [base] over the old parts they leave. *)
let min_over_removals t ~old ~base =
  let members = Bitset.to_array old in
  let want = Array.length members - Catalog.h t.cat in
  let candidates = ref [] in
  let rec choose picked count start =
    if count = want then candidates := picked :: !candidates
    else
      for i = start to Array.length members - 1 do
        choose (Bitset.add members.(i) picked) (count + 1) (i + 1)
      done
  in
  choose Bitset.empty 0 0;
  List.fold_left
    (fun best rm -> match base (Bitset.diff old rm) with Some m when m < best -> m | _ -> best)
    infinity !candidates

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
    let m = Array.fold_left Float.min infinity (sizes_of t ~child ~v) in
    if m = infinity then 1.0 else m

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
      c

let card t s =
  let c = raw_card t s in
  match t.corrections with None -> c | Some f -> c *. f s

let estimate_cardinality cat q =
  let n = Query.num_vertices q in
  if n < 2 || not (Query.is_connected q) then 0.0 else card (create cat q) (Bitset.full n)

let descriptor_sizes t ~child ~v =
  match Hashtbl.find_opt t.sizes (child, v) with
  | Some a -> a
  | None ->
      let a = sizes_of t ~child ~v in
      Hashtbl.replace t.sizes (child, v) a;
      a

let total_descriptor_size t ~child ~v = Array.fold_left ( +. ) 0.0 (descriptor_sizes t ~child ~v)

let extension_icost t ~chain ~child ~v =
  let sources = Bitset.inter t.nbrs.(v) child in
  if sources = Bitset.empty then invalid_arg "Cost_model.extension_icost: no descriptors";
  let multiplier =
    if t.cache_conscious then begin
      (* Smallest chain prefix covering every descriptor source: consecutive
         tuples share that prefix's bindings, so at most card(prefix)
         distinct intersections run. Never more than card(child) either. *)
      let rec find i =
        if i = Array.length chain then child
        else if Bitset.subset sources chain.(i) then chain.(i)
        else find (i + 1)
      in
      Float.min (card t (find 0)) (card t child)
    end
    else card t child
  in
  multiplier *. total_descriptor_size t ~child ~v

let hash_join_cost t s1 s2 =
  (t.weights.Cost.w1 *. card t s1) +. (t.weights.Cost.w2 *. card t s2)
