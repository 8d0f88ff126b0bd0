module Graph = Gf_graph.Graph
module Query = Gf_query.Query
module Int_vec = Gf_util.Int_vec
module Sorted = Gf_util.Sorted
module Rng = Gf_util.Rng
module Plan = Gf_plan.Plan

let estimate_with_order g q ~order ~walks rng =
  let k = Array.length order in
  assert (k = Query.num_vertices q);
  let scan_edge =
    match
      Array.to_list q.Query.edges
      |> List.find_opt (fun (e : Query.edge) ->
             (e.src = order.(0) && e.dst = order.(1)) || (e.src = order.(1) && e.dst = order.(0)))
    with
    | Some e -> e
    | None -> invalid_arg "Wander: first two vertices not adjacent"
  in
  (* Pool of edges for the scan. *)
  let pool = ref [] in
  Graph.iter_edges g ~elabel:scan_edge.Query.label
    ~slabel:(Query.vlabel q scan_edge.Query.src)
    ~dlabel:(Query.vlabel q scan_edge.Query.dst)
    (fun u v -> pool := (u, v) :: !pool);
  let pool = Array.of_list !pool in
  if Array.length pool = 0 then 0.0
  else begin
    (* The walk tuple is in [order]: descriptor positions index it. *)
    let steps =
      Array.init k (fun d ->
          if d < 2 then [||] else Plan.descriptors q (Array.sub order 0 d) order.(d))
    in
    let tuple = Array.make k 0 in
    let lists = Array.map (fun ds -> Sorted.lists (Array.length ds)) steps in
    let result = Int_vec.create () in
    let total = ref 0.0 in
    for _ = 1 to walks do
      let u, v = pool.(Rng.int rng (Array.length pool)) in
      let a, b = if scan_edge.Query.src = order.(0) then (u, v) else (v, u) in
      tuple.(0) <- a;
      tuple.(1) <- b;
      let weight = ref (float_of_int (Array.length pool)) in
      (try
         for d = 2 to k - 1 do
           let target_label = Query.vlabel q order.(d) in
           let ds = steps.(d) and l = lists.(d) in
           for i = 0 to Array.length ds - 1 do
             let e = ds.(i) in
             Graph.neighbours_into g e.Plan.dir tuple.(e.Plan.pos) ~elabel:e.Plan.elabel
               ~nlabel:target_label l i
           done;
           Int_vec.clear result;
           Sorted.intersect result l;
           let n = Int_vec.length result in
           if n = 0 then raise Exit;
           tuple.(d) <- Int_vec.get result (Rng.int rng n);
           weight := !weight *. float_of_int n
         done;
         total := !total +. !weight
       with Exit -> ())
    done;
    !total /. float_of_int walks
  end

let estimate g q ~walks rng =
  estimate_with_order g q ~order:(Query.first_connected_order q) ~walks rng
