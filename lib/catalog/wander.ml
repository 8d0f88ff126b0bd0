module Graph = Gf_graph.Graph
module Query = Gf_query.Query
module Int_vec = Gf_util.Int_vec
module Sorted = Gf_util.Sorted
module Rng = Gf_util.Rng
module Plan = Gf_plan.Plan

let edge_pool g ~elabel ~slabel ~dlabel =
  let acc = ref [] in
  Graph.iter_edges g ~elabel ~slabel ~dlabel (fun u v -> acc := (u, v) :: !acc);
  Array.of_list !acc

let walks ?edges g q ~order ~starts rng f =
  let k = Array.length order in
  assert (k = Query.num_vertices q);
  let joins (e : Query.edge) =
    (e.src = order.(0) && e.dst = order.(1)) || (e.src = order.(1) && e.dst = order.(0))
  in
  match List.filter joins (Array.to_list q.Query.edges) with
  | [] -> invalid_arg "Wander: first two vertices not adjacent"
  | scan :: others ->
      let edges = Option.value edges ~default:(edge_pool g) in
      let pool =
        edges ~elabel:scan.label ~slabel:(Query.vlabel q scan.src)
          ~dlabel:(Query.vlabel q scan.dst)
      in
      (* The walk tuple is in [order]: descriptor positions index it. *)
      let steps =
        Array.init k (fun d ->
            if d < 2 then [||] else Plan.descriptors q (Array.sub order 0 d) order.(d))
      in
      let lists =
        Array.map
          (fun ds -> Sorted.lists ~bits:(Graph.bitmap_words g) (Array.length ds))
          steps
      in
      let ext = Int_vec.create () and tuple = Array.make k 0 in
      (* Step [d]'s extension set, intersected into [ext]. *)
      let extend d =
        let ds = steps.(d) and l = lists.(d) in
        for i = 0 to Array.length ds - 1 do
          let e = ds.(i) in
          Graph.neighbours_into g e.Plan.dir tuple.(e.Plan.pos) ~elabel:e.Plan.elabel
            ~nlabel:(Query.vlabel q order.(d)) l i
        done;
        Int_vec.clear ext;
        Sorted.intersect ext l;
        Int_vec.length ext
      in
      let rec scan_ok a b = function
        | [] -> true
        | (e : Query.edge) :: rest ->
            (if e.src = order.(0) then Graph.has_edge g a b ~elabel:e.label
             else Graph.has_edge g b a ~elabel:e.label)
            && scan_ok a b rest
      in
      Array.iter
        (fun i ->
          let u, v = pool.(i) in
          let a, b = if scan.src = order.(0) then (u, v) else (v, u) in
          tuple.(0) <- a;
          tuple.(1) <- b;
          if scan_ok a b others then
            if k = 2 then f 1.0 1 lists.(1)
            else begin
              let d = ref 2 and weight = ref 1.0 and n = ref (extend 2) in
              while !d < k - 1 && !n > 0 do
                tuple.(!d) <- Int_vec.get ext (Rng.int rng !n);
                weight := !weight *. float_of_int !n;
                incr d;
                n := extend !d
              done;
              if !d = k - 1 then f !weight !n lists.(!d)
            end)
        (starts (Array.length pool));
      Array.length pool

let estimate_with_order g q ~order ~walks:n rng =
  let total = ref 0.0 in
  let starts npool = if npool = 0 then [||] else Array.init n (fun _ -> Rng.int rng npool) in
  let npool =
    walks g q ~order ~starts rng (fun weight ext _ ->
        total := !total +. (weight *. float_of_int ext))
  in
  float_of_int npool *. !total /. float_of_int n

let estimate g q ~walks rng =
  estimate_with_order g q ~order:(Query.first_connected_order q) ~walks rng
