module Bitset = Gf_util.Bitset
module Query = Gf_query.Query
module Catalog = Gf_catalog.Catalog
module Graph = Gf_graph.Graph

type t = {
  cat : Catalog.t;
  q : Query.t;
  cache_conscious : bool;
  weights : Cost.weights;
  corrections : (Bitset.t -> float) option;
  cards : (int, float) Hashtbl.t;
  mus : (int * int, float) Hashtbl.t;
  sizes : (int * int, float) Hashtbl.t; (* (child_set, v) -> sum of descriptor sizes *)
}

let create ?(cache_conscious = true) ?(weights = Cost.default_weights) ?corrections
    cat q =
  {
    cat;
    q;
    cache_conscious;
    weights;
    corrections;
    cards = Hashtbl.create 64;
    mus = Hashtbl.create 64;
    sizes = Hashtbl.create 64;
  }

let query t = t.q
let cache_conscious t = t.cache_conscious
let weights t = t.weights
let uncorrected t = { t with corrections = None }

let work t = Hashtbl.length t.cards + Hashtbl.length t.mus + Hashtbl.length t.sizes

(* The extension of child-set by v, as (induced sub-query, v's index in it). *)
let induced_extension t ~child ~v =
  let s = Bitset.add v child in
  let sub, map = Query.induced t.q s in
  let vpos = ref (-1) in
  Array.iteri (fun i ov -> if ov = v then vpos := i) map;
  (sub, map, !vpos)

let mu t ~child ~v =
  match Hashtbl.find_opt t.mus (child, v) with
  | Some m -> m
  | None ->
      let sub, _, vpos = induced_extension t ~child ~v in
      let m = Catalog.mu_estimate t.cat sub ~new_vertex:vpos in
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

(* Sum of the estimated sizes of the adjacency lists intersected when
   extending [child] by [v], and the set of descriptor source vertices. *)
let descriptor_sources t ~child ~v =
  Array.fold_left
    (fun acc (e : Query.edge) ->
      if e.dst = v && Bitset.mem e.src child then Bitset.add e.src acc
      else if e.src = v && Bitset.mem e.dst child then Bitset.add e.dst acc
      else acc)
    Bitset.empty t.q.Query.edges

let total_descriptor_size t ~child ~v =
  match Hashtbl.find_opt t.sizes (child, v) with
  | Some s -> s
  | None ->
      let sub, map, vpos = induced_extension t ~child ~v in
      (* Positions of the original vertices inside the induced sub-query. *)
      let pos_of = Hashtbl.create 8 in
      Array.iteri (fun i ov -> Hashtbl.replace pos_of ov i) map;
      let total = ref 0.0 in
      Array.iter
        (fun (e : Query.edge) ->
          if e.dst = v && Bitset.mem e.src child then
            total :=
              !total
              +. Catalog.descriptor_size t.cat sub ~new_vertex:vpos
                   ~src:(Hashtbl.find pos_of e.src) ~dir:Graph.Fwd ~elabel:e.label
          else if e.src = v && Bitset.mem e.dst child then
            total :=
              !total
              +. Catalog.descriptor_size t.cat sub ~new_vertex:vpos
                   ~src:(Hashtbl.find pos_of e.dst) ~dir:Graph.Bwd ~elabel:e.label)
        t.q.Query.edges;
      Hashtbl.replace t.sizes (child, v) !total;
      !total

let extension_icost t ~chain ~child ~v =
  let sources = descriptor_sources t ~child ~v in
  if sources = Bitset.empty then invalid_arg "Cost_model.extension_icost: no descriptors";
  let multiplier =
    if t.cache_conscious then begin
      (* Smallest chain prefix covering every descriptor source: consecutive
         tuples share that prefix's bindings, so at most card(prefix)
         distinct intersections run. Never more than card(child) either. *)
      let rec find = function
        | [] -> child
        | prefix :: rest -> if Bitset.subset sources prefix then prefix else find rest
      in
      Float.min (card t (find chain)) (card t child)
    end
    else card t child
  in
  multiplier *. total_descriptor_size t ~child ~v

let hash_join_cost t s1 s2 =
  (t.weights.Cost.w1 *. card t s1) +. (t.weights.Cost.w2 *. card t s2)
