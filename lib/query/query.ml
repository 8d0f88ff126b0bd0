module Bitset = Gf_util.Bitset

type edge = { src : int; dst : int; label : int }

type t = {
  num_vertices : int;
  vlabels : int array;
  edges : edge array;
}

let create ~num_vertices ?vlabels ~edges () =
  if num_vertices <= 0 || num_vertices > 60 then invalid_arg "Query.create: bad vertex count";
  let vlabels =
    match vlabels with
    | None -> Array.make num_vertices 0
    | Some v ->
        if Array.length v <> num_vertices then invalid_arg "Query.create: vlabels length";
        Array.copy v
  in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun { src; dst; label } ->
      if src < 0 || src >= num_vertices || dst < 0 || dst >= num_vertices then
        invalid_arg "Query.create: edge endpoint out of range";
      if src = dst then invalid_arg "Query.create: self loop";
      if label < 0 then invalid_arg "Query.create: negative edge label";
      let key = (src, dst, label) in
      if Hashtbl.mem seen key then invalid_arg "Query.create: duplicate edge";
      Hashtbl.replace seen key ())
    edges;
  { num_vertices; vlabels; edges = Array.copy edges }

let unlabeled_edges n pairs =
  create ~num_vertices:n
    ~edges:(Array.of_list (List.map (fun (s, d) -> { src = s; dst = d; label = 0 }) pairs))
    ()

let num_vertices q = q.num_vertices
let num_edges q = Array.length q.edges
let vlabel q i = q.vlabels.(i)

let has_edge q i j = Array.exists (fun e -> e.src = i && e.dst = j) q.edges
let adjacent q i j = has_edge q i j || has_edge q j i

let neighbours q i =
  Array.fold_left
    (fun acc e ->
      if e.src = i then Bitset.add e.dst acc
      else if e.dst = i then Bitset.add e.src acc
      else acc)
    Bitset.empty q.edges

let edges_within q s =
  Array.to_list q.edges |> List.filter (fun e -> Bitset.mem e.src s && Bitset.mem e.dst s)

let is_connected_subset q s =
  if s = Bitset.empty then false
  else begin
    let start = Bitset.min_elt s in
    let visited = ref (Bitset.singleton start) in
    let frontier = ref (Bitset.singleton start) in
    while !frontier <> Bitset.empty do
      let next = ref Bitset.empty in
      Bitset.iter
        (fun v ->
          let nb = Bitset.inter (neighbours q v) s in
          next := Bitset.union !next (Bitset.diff nb !visited))
        !frontier;
      visited := Bitset.union !visited !next;
      frontier := !next
    done;
    !visited = s
  end

let is_connected q = is_connected_subset q (Bitset.full q.num_vertices)

let induced q s =
  let members = Bitset.to_array s in
  let back = Array.make q.num_vertices (-1) in
  Array.iteri (fun i v -> back.(v) <- i) members;
  let vlabels = Array.map (fun v -> q.vlabels.(v)) members in
  let edges =
    Array.of_list
      (List.map
         (fun e -> { src = back.(e.src); dst = back.(e.dst); label = e.label })
         (edges_within q s))
  in
  (create ~num_vertices:(Array.length members) ~vlabels ~edges (), members)

let connected_orders_extending q ~bound =
  let n = q.num_vertices in
  let rest = Bitset.diff (Bitset.full n) bound in
  let k = Bitset.cardinal rest in
  let acc = ref [] in
  let order = Array.make k 0 in
  let rec go depth placed =
    if depth = k then acc := Array.copy order :: !acc
    else
      Bitset.iter
        (fun v ->
          if not (Bitset.mem v placed) then begin
            let connects =
              (* First vertex overall may start anywhere; otherwise it must
                 touch an already-placed or bound vertex. *)
              placed = Bitset.empty || Bitset.inter (neighbours q v) placed <> Bitset.empty
            in
            if connects then begin
              order.(depth) <- v;
              go (depth + 1) (Bitset.add v placed)
            end
          end)
        rest
  in
  go 0 bound;
  List.rev !acc

let connected_orders q = connected_orders_extending q ~bound:Bitset.empty

(* A depth-first search in the order [connected_orders_extending] visits,
   stopped at the first complete order. It never backtracks out of a
   connected query: a connected prefix always has a neighbour left. *)
let first_connected_order ?last q =
  let k = q.num_vertices in
  let skip = Option.value last ~default:(-1) in
  let order = Array.make k skip in
  let stop = if last = None then k else k - 1 in
  let exception Found in
  let rec go depth placed =
    if depth = stop then raise Found;
    for v = 0 to k - 1 do
      if
        v <> skip
        && (not (Bitset.mem v placed))
        && (depth = 0 || Bitset.inter (neighbours q v) placed <> Bitset.empty)
      then begin
        order.(depth) <- v;
        go (depth + 1) (Bitset.add v placed)
      end
    done
  in
  match go 0 Bitset.empty with
  | () -> invalid_arg "Query.first_connected_order: no connected order"
  | exception Found -> order

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let relabel_vertices q perm =
  let n = q.num_vertices in
  if Array.length perm <> n then invalid_arg "Query.relabel_vertices";
  let vlabels = Array.make n 0 in
  for i = 0 to n - 1 do
    vlabels.(perm.(i)) <- q.vlabels.(i)
  done;
  let edges =
    Array.map (fun e -> { src = perm.(e.src); dst = perm.(e.dst); label = e.label }) q.edges
  in
  create ~num_vertices:n ~vlabels ~edges ()

let canonical_edge_list q =
  Array.to_list q.edges |> List.map (fun e -> (e.src, e.dst, e.label)) |> List.sort compare

let equal q1 q2 =
  q1.num_vertices = q2.num_vertices
  && q1.vlabels = q2.vlabels
  && canonical_edge_list q1 = canonical_edge_list q2

let automorphisms q =
  let n = q.num_vertices in
  let idxs = List.init n (fun i -> i) in
  permutations idxs
  |> List.filter_map (fun p ->
         let perm = Array.of_list p in
         if equal (relabel_vertices q perm) q then Some perm else None)

let pp fmt q =
  Format.fprintf fmt "@[<h>";
  Array.iteri
    (fun i l -> if l <> 0 then Format.fprintf fmt "a%d:%d " (i + 1) l)
    q.vlabels;
  Array.iteri
    (fun i e ->
      if i > 0 then Format.fprintf fmt ", ";
      if e.label = 0 then Format.fprintf fmt "a%d->a%d" (e.src + 1) (e.dst + 1)
      else Format.fprintf fmt "a%d->a%d@@%d" (e.src + 1) (e.dst + 1) e.label)
    q.edges;
  Format.fprintf fmt "@]"

let to_string q = Format.asprintf "%a" pp q
