module Graph = Gf_graph.Graph
module Query = Gf_query.Query
module Sorted = Gf_util.Sorted
module Rng = Gf_util.Rng
module Plan = Gf_plan.Plan

(* Pool index [i] is edge [npool - 1 - i] of the sources' partitions in
   [vertices_with_label] order: the numbering the starts, and so every
   sampled entry, depend on. Each source's offsets are a cache miss apart,
   so they are read once, in a loop without calls. *)
let edge_pool g ~elabel ~slabel ~dlabel =
  let c = Graph.csr g Graph.Fwd ~elabel ~nlabel:dlabel in
  let vs = Graph.vertices_with_label g slabel in
  let ns = Array.length vs in
  let bounds = Array.make (2 * ns) 0 and n = ref 0 in
  for j = 0 to ns - 1 do
    let x = (Array.unsafe_get vs j * c.stride) + c.base in
    let lo = Bigarray.Array1.unsafe_get c.off x and hi = Bigarray.Array1.unsafe_get c.off (x + 1) in
    Array.unsafe_set bounds (2 * j) lo;
    Array.unsafe_set bounds ((2 * j) + 1) hi;
    n := !n + hi - lo
  done;
  let pool = Array.make (2 * !n) 0 and i = ref !n in
  for j = 0 to ns - 1 do
    for x = bounds.(2 * j) to bounds.((2 * j) + 1) - 1 do
      decr i;
      pool.(2 * !i) <- vs.(j);
      pool.((2 * !i) + 1) <- Gf_util.Buf.unsafe_get c.nbr x
    done
  done;
  pool

(* The walk kernel (sorted_stubs.c): every walk of one call. *)
external c_walks :
  Sorted.csr array ->
  int array ->
  Sorted.bits ->
  int array ->
  bool ->
  int array ->
  Rng.t ->
  float array ->
  int = "gfq_walks_bc" "gfq_walks"

let started = Atomic.make 0
let walk_count () = Atomic.get started

type sample = {
  npool : int;
  walked : int;
  last : Plan.descriptor array;
  weight : float;
  ext : float;
  sizes : float array;
  step : Sorted.work array;
  stable : Sorted.work array;
  all : Sorted.work;
}

let walks ?edges g q ~order ~starts rng =
  let k = Array.length order in
  assert (k = Query.num_vertices q);
  let qe = q.Query.edges in
  (* The walk tuple is in [order]: [col.(v)] is query vertex [v]'s column. *)
  let col = Array.make k 0 in
  Array.iteri (fun i v -> col.(v) <- i) order;
  (* {!Plan.descriptors} of every step at once: an edge is a list of the
     step of its later end, sourced from its earlier end's column, forward
     when it points at the later end, and a step's lists are in edge
     order. Step 1's first edge is the scan; its others are the scan's
     checks. *)
  let step (e : Query.edge) = Int.max col.(e.src) col.(e.dst) in
  let dir (e : Query.edge) = if col.(e.dst) > col.(e.src) then Graph.Fwd else Graph.Bwd in
  let descriptor (e : Query.edge) =
    { Plan.pos = Int.min col.(e.src) col.(e.dst); dir = dir e; elabel = e.label }
  in
  let s = ref (-1) in
  Array.iteri (fun i e -> if !s < 0 && step e = 1 then s := i) qe;
  if !s < 0 then invalid_arg "Wander: first two vertices not adjacent";
  let s = !s in
  let scan = qe.(s) and nd = Array.length qe - 1 in
  (* spec: k, each step's list count, each list's source column by step. *)
  let spec = Array.make (k + nd) 0 and slot = Array.make k k and edge_at = Array.make nd 0 in
  spec.(0) <- k;
  Array.iteri (fun i e -> if i <> s then spec.(step e) <- spec.(step e) + 1) qe;
  for d = 2 to k - 1 do
    slot.(d) <- slot.(d - 1) + spec.(d - 1)
  done;
  Array.iteri
    (fun i e ->
      if i <> s then begin
        let d = step e in
        spec.(slot.(d)) <- Int.min col.(e.src) col.(e.dst);
        edge_at.(slot.(d) - k) <- i;
        slot.(d) <- slot.(d) + 1
      end)
    qe;
  let csrs =
    Array.map
      (fun i ->
        let e = qe.(i) in
        Graph.csr g (dir e) ~elabel:e.label ~nlabel:(Query.vlabel q order.(step e)))
      edge_at
  in
  let slabel = Query.vlabel q scan.src and dlabel = Query.vlabel q scan.dst in
  let pool =
    match edges with
    | Some edges -> edges ~elabel:scan.label ~slabel ~dlabel
    | None -> edge_pool g ~elabel:scan.label ~slabel ~dlabel
  in
  let last =
    if k = 2 then [||]
    else Array.init spec.(k - 1) (fun j -> descriptor qe.(edge_at.(nd - spec.(k - 1) + j)))
  in
  let nf = Array.length last in
  let sums = Array.make (2 + nf + (3 * ((2 * nf) + 1))) 0.0 in
  let npool = Array.length pool / 2 in
  let starts = starts npool in
  for j = 0 to Array.length starts - 1 do
    if starts.(j) < 0 || starts.(j) >= npool then invalid_arg "Wander.walks: start out of the pool"
  done;
  ignore (Atomic.fetch_and_add started (Array.length starts));
  let walked =
    c_walks csrs spec (Graph.bitmap_words g) pool (scan.src <> order.(0)) starts rng sums
  in
  let work o = { Sorted.merged = sums.(o); galloped = sums.(o + 1); probed = sums.(o + 2) } in
  {
    npool;
    walked;
    last;
    weight = sums.(0);
    ext = sums.(1);
    sizes = Array.sub sums 2 nf;
    step = Array.init nf (fun i -> work (2 + nf + (3 * i)));
    stable = Array.init nf (fun i -> work (2 + (4 * nf) + (3 * i)));
    all = work (2 + (7 * nf));
  }

let estimate_with_order g q ~order ~walks:n rng =
  let starts npool = if npool = 0 then [||] else Array.init n (fun _ -> Rng.int rng npool) in
  let s = walks g q ~order ~starts rng in
  float_of_int s.npool *. s.ext /. float_of_int n

let estimate g q ~walks rng =
  estimate_with_order g q ~order:(Query.first_connected_order q) ~walks rng
