module Graph = Gf_graph.Graph
module Query = Gf_query.Query
module Bitset = Gf_util.Bitset

let iter ?(distinct = false) g q f =
  let n = Query.num_vertices q in
  let order = Query.first_connected_order q in
  let assignment = Array.make n (-1) in
  let consistent qv dv =
    Graph.vlabel g dv = Query.vlabel q qv
    && (not (distinct && Array.exists (( = ) dv) assignment))
    && Array.for_all
         (fun (e : Query.edge) ->
           if e.src = qv && assignment.(e.dst) >= 0 then
             Graph.has_edge g dv assignment.(e.dst) ~elabel:e.label
           else if e.dst = qv && assignment.(e.src) >= 0 then
             Graph.has_edge g assignment.(e.src) dv ~elabel:e.label
           else true)
         q.Query.edges
  in
  let rec go depth =
    if depth = n then f (Array.copy assignment)
    else begin
      let qv = order.(depth) in
      (* Candidates: neighbours of an already-bound adjacent query vertex
         when one exists, otherwise all vertices of the right label. *)
      let candidates =
        let bound_nbr = ref None in
        Array.iter
          (fun (e : Query.edge) ->
            if !bound_nbr = None then begin
              if e.src = qv && assignment.(e.dst) >= 0 then
                bound_nbr := Some (assignment.(e.dst), Graph.Bwd, e.label)
              else if e.dst = qv && assignment.(e.src) >= 0 then
                bound_nbr := Some (assignment.(e.src), Graph.Fwd, e.label)
            end)
          q.Query.edges;
        match !bound_nbr with
        | Some (dv, dir, el) ->
            let arr, lo, hi = Graph.neighbours g dir dv ~elabel:el ~nlabel:(Query.vlabel q qv) in
            Gf_util.Buf.sub_array arr lo hi
        | None -> Graph.vertices_with_label g (Query.vlabel q qv)
      in
      Array.iter
        (fun dv ->
          if consistent qv dv then begin
            assignment.(qv) <- dv;
            go (depth + 1);
            assignment.(qv) <- -1
          end)
        candidates
    end
  in
  go 0

let count ?distinct g q =
  let c = ref 0 in
  iter ?distinct g q (fun _ -> incr c);
  !c

let collect ?distinct g q =
  let acc = ref [] in
  iter ?distinct g q (fun t -> acc := t :: !acc);
  List.rev !acc
