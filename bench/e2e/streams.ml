(* Seeded workload inputs: query templates, read-request streams and the
   mutation stream. Everything here is a pure function of the seed and the
   (fixed-seed) data graph, so two runs with one seed send byte-identical
   requests. *)

module Gf = Graphflow

(* One read request: the line sent on the wire plus what the oracle needs
   to check its answer. [pool] is the template's index in the workload's
   pool, or [None] for a never-seen template generated for this request. *)
type read = { line : string; query : Gf.Query.t; pool : int option }

(* A template rendered with a fresh numbering: vertex names are a random
   permutation and the items are shuffled, so the parser binds vertices in
   a new order on every request while the pattern stays isomorphic. *)
let render rng (q : Gf.Query.t) =
  let n = q.Gf.Query.num_vertices in
  let perm = Array.init n Fun.id in
  Gf.Rng.shuffle rng perm;
  let name i = Printf.sprintf "v%d" perm.(i) in
  let items =
    Array.append
      (Array.init n (fun i -> Printf.sprintf "%s:%d" (name i) q.Gf.Query.vlabels.(i)))
      (Array.map
         (fun (e : Gf.Query.edge) ->
           if e.label = 0 then Printf.sprintf "%s->%s" (name e.src) (name e.dst)
           else Printf.sprintf "%s->%s@%d" (name e.src) (name e.dst) e.label)
         q.Gf.Query.edges)
  in
  Gf.Rng.shuffle rng items;
  String.concat ", " (Array.to_list items)

(* Draws from [block], reshuffled each time it is used up: every block
   holds the same requests, so the mix (and with it the latency
   percentiles) does not drift with the seed; only the order does. *)
let blocks rng block =
  let at = ref (Array.length block) in
  fun () ->
    if !at >= Array.length block then begin
      Gf.Rng.shuffle rng block;
      at := 0
    end;
    incr at;
    block.(!at - 1)

(* Pattern sizes of the labeled mix. A plan-cache miss costs about 0.1 ms
   at 3 vertices and 20-40 ms at 7 on the human analogue, so the sizes
   span cheap lookups and planner-bound misses. *)
let sizes = [| 3; 4; 5; 6; 7 |]

(* Random connected patterns cut out of the data graph, so every template
   has at least one match; labels are copied from the data. Sizes cycle in
   rank order: template [k] has [sizes.(k mod 5)] vertices. *)
let labeled_template g rng k =
  Gf.Query_gen.from_data g rng ~num_vertices:sizes.(k mod Array.length sizes) ~dense:false

let labeled_pool g rng ~size = Array.init size (labeled_template g rng)

(* Template popularity: weights drawn from a Pareto(alpha) distribution
   have a rank-frequency law of rank^(-1/alpha). Returns the cumulative
   weights of the given 0-based ranks for inverse-transform sampling. *)
let pareto_cdf ~alpha ranks =
  let w = Array.map (fun r -> Float.pow (float_of_int (r + 1)) (-1. /. alpha)) ranks in
  let total = Stats.sum w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* The first index whose cumulative weight exceeds a uniform draw. *)
let sample_cdf rng cdf =
  let u = Gf.Rng.float rng 1.0 in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) > u then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cdf - 1)

(* Requests of each size in a block of 50 of the labeled mix; one of each
   size's is a never-seen template, so 10% of requests are. Small patterns
   are the more common, and this puts the median request inside the mass
   of 4- and 5-vertex costs: with 10 of every size it fell where 5-vertex
   costs thin out before the 6-vertex ones, and small shifts in the host
   moved it several times as much as the mean (see README). *)
let per_block = [| 12; 12; 12; 8; 6 |]

(* The labeled-short read mix: pool templates with Pareto(1.2) popularity,
   re-numbered on every request, plus never-seen templates. Each block
   holds [per_block] requests of each size, so how many planner-bound
   7-vertex requests a run sends does not depend on the seed; which
   template each request gets does. *)
let labeled_reads g ~pool rng =
  let k = Array.length sizes in
  let classes =
    Array.init k (fun c ->
        let ranks = Array.init (Array.length pool / k) (fun j -> c + (j * k)) in
        (ranks, pareto_cdf ~alpha:1.2 ranks))
  in
  let slot = blocks rng (Array.concat (List.init k (fun c -> Array.init per_block.(c) (fun j -> (c, j = 0))))) in
  fun () ->
    match slot () with
    | c, true ->
        let q = labeled_template g rng c in
        { line = "run q=" ^ render rng q; query = q; pool = None }
    | c, false ->
        let idx, cdf = classes.(c) in
        let i = idx.(sample_cdf rng cdf) in
        { line = "run q=" ^ render rng pool.(i); query = pool.(i); pool = Some i }

(* Benchmark-set queries, each once per block. *)
let named_reads names rng =
  let next = blocks rng (Array.mapi (fun i _ -> i) names) in
  fun () ->
    let i = next () in
    { line = "run q=" ^ fst names.(i); query = snd names.(i); pool = Some i }

let q_named i = (Printf.sprintf "Q%d" i, Gf.Patterns.q i)

type mutation = Add of int * int | Del of int * int

let mutation_line = function
  | Add (u, v) -> Printf.sprintf "addedge %d %d" u v
  | Del (u, v) -> Printf.sprintf "deledge %d %d" u v

(* 70% inserts of absent edges, 30% deletes of genesis edges, each on a
   vertex pair no earlier mutation touched and never a self-loop (the store
   refuses those), so every mutation applies and the final graph is exactly
   genesis plus the acknowledged prefix. *)
let mutations g rng =
  let n = Gf.Graph.num_vertices g in
  let edges = Gf.Graph.edge_array g in
  let present = Hashtbl.create (Array.length edges) in
  Array.iter (fun (u, v, _) -> Hashtbl.replace present (u, v) ()) edges;
  let used = Hashtbl.create 4096 in
  let rec fresh_pair () =
    let u = Gf.Rng.int rng n and v = Gf.Rng.int rng n in
    if u = v || Hashtbl.mem present (u, v) || Hashtbl.mem used (u, v) then fresh_pair ()
    else (u, v)
  in
  let rec genesis_edge () =
    let u, v, _ = edges.(Gf.Rng.int rng (Array.length edges)) in
    if Hashtbl.mem used (u, v) then genesis_edge () else (u, v)
  in
  fun () ->
    let m =
      if Gf.Rng.float rng 1.0 < 0.7 then
        let u, v = fresh_pair () in
        Add (u, v)
      else
        let u, v = genesis_edge () in
        Del (u, v)
    in
    (match m with Add (u, v) | Del (u, v) -> Hashtbl.replace used (u, v) ());
    m

(* The graph a store must hold after [muts] were acknowledged on [g]. *)
let apply_mutations g muts =
  let live = Hashtbl.create (Gf.Graph.num_edges g) in
  Array.iter (fun (u, v, l) -> Hashtbl.replace live (u, v, l) ()) (Gf.Graph.edge_array g);
  List.iter
    (function
      | Add (u, v) -> Hashtbl.replace live (u, v, 0) ()
      | Del (u, v) -> Hashtbl.remove live (u, v, 0))
    muts;
  let edges = Array.of_seq (Hashtbl.to_seq_keys live) in
  Array.sort compare edges;
  Gf.Graph.build ~num_vlabels:(Gf.Graph.num_vlabels g) ~num_elabels:(Gf.Graph.num_elabels g)
    ~vlabel:(Array.init (Gf.Graph.num_vertices g) (Gf.Graph.vlabel g))
    ~edges
