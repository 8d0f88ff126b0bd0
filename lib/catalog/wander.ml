module Graph = Gf_graph.Graph
module Query = Gf_query.Query
module Int_vec = Gf_util.Int_vec
module Sorted = Gf_util.Sorted
module Rng = Gf_util.Rng

let estimate_with_order g q ~order ~walks rng =
  let k = Array.length order in
  assert (k = Query.num_vertices q);
  (* Position of each query vertex in the walk tuple. *)
  let pos = Array.make k (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) order;
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
    (* Extension descriptors per step, as (tuple position, dir, elabel). *)
    let steps =
      Array.init k (fun d ->
          if d < 2 then [||]
          else begin
            let target = order.(d) in
            Array.to_list q.Query.edges
            |> List.filter_map (fun (e : Query.edge) ->
                   if e.dst = target && pos.(e.src) < d then
                     Some (pos.(e.src), Graph.Fwd, e.label)
                   else if e.src = target && pos.(e.dst) < d then
                     Some (pos.(e.dst), Graph.Bwd, e.label)
                   else None)
            |> Array.of_list
          end)
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
             let p, dir, el = ds.(i) in
             Graph.neighbours_into g dir tuple.(p) ~elabel:el ~nlabel:target_label l i
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
  match Query.connected_orders q with
  | [] -> invalid_arg "Wander: disconnected query"
  | order :: _ -> estimate_with_order g q ~order ~walks rng
