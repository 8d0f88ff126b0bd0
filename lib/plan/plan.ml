module Bitset = Gf_util.Bitset
module Query = Gf_query.Query
module Graph = Gf_graph.Graph

type descriptor = { pos : int; dir : Graph.direction; elabel : int }

type t =
  | Scan of { edge : Query.edge; slabel : int; dlabel : int; vars : int array }
  | Extend of {
      child : t;
      target : int;
      target_label : int;
      descriptors : descriptor array;
      vars : int array;
    }
  | Hash_join of {
      build : t;
      probe : t;
      key : int array;
      build_key_pos : int array;
      probe_key_pos : int array;
      build_extra_pos : int array;
      vars : int array;
    }

let vars = function
  | Scan { vars; _ } | Extend { vars; _ } | Hash_join { vars; _ } -> vars

let var_set p = Array.fold_left (fun s v -> Bitset.add v s) Bitset.empty (vars p)

let scan q (e : Query.edge) =
  let between =
    Array.to_list q.Query.edges
    |> List.filter (fun (e' : Query.edge) ->
           (e'.src = e.src && e'.dst = e.dst) || (e'.src = e.dst && e'.dst = e.src))
  in
  if List.length between <> 1 then
    invalid_arg "Plan.scan: query has parallel/anti-parallel edges between the scanned pair";
  Scan
    {
      edge = e;
      slabel = Query.vlabel q e.src;
      dlabel = Query.vlabel q e.dst;
      vars = [| e.src; e.dst |];
    }

(* The column of [v] in [schema], or -1. *)
let position schema v =
  let rec go i =
    if i >= Array.length schema then -1 else if schema.(i) = v then i else go (i + 1)
  in
  go 0

let descriptors q bound target =
  Array.fold_right
    (fun (e : Query.edge) acc ->
      let add src dir =
        match position bound src with -1 -> acc | pos -> { pos; dir; elabel = e.label } :: acc
      in
      if e.dst = target then add e.src Graph.Fwd
      else if e.src = target then add e.dst Graph.Bwd
      else acc)
    q.Query.edges []
  |> Array.of_list

let extend q child target =
  let cvars = vars child in
  if Array.exists (( = ) target) cvars then invalid_arg "Plan.extend: target already bound";
  let descriptors = descriptors q cvars target in
  if Array.length descriptors = 0 then
    invalid_arg "Plan.extend: target not adjacent to the sub-plan";
  Extend
    {
      child;
      target;
      target_label = Query.vlabel q target;
      descriptors;
      vars = Array.append cvars [| target |];
    }

let hash_join q build probe =
  let bset = var_set build and pset = var_set probe in
  let shared = Bitset.inter bset pset in
  if shared = Bitset.empty then invalid_arg "Plan.hash_join: disjoint children";
  let union = Bitset.union bset pset in
  (* Every induced edge of q on the union must be covered by a child
     (otherwise the join would silently drop a predicate). *)
  let covered (e : Query.edge) set = Bitset.mem e.src set && Bitset.mem e.dst set in
  List.iter
    (fun e ->
      if not (covered e bset || covered e pset) then
        invalid_arg "Plan.hash_join: uncovered query edge across the join")
    (Query.edges_within q union);
  let bvars = vars build and pvars = vars probe in
  let key = Bitset.to_array shared in
  let build_key_pos = Array.map (position bvars) key in
  let probe_key_pos = Array.map (position pvars) key in
  let build_extra =
    Array.to_list bvars |> List.filter (fun v -> not (Bitset.mem v shared)) |> Array.of_list
  in
  let build_extra_pos = Array.map (position bvars) build_extra in
  Hash_join
    {
      build;
      probe;
      key;
      build_key_pos;
      probe_key_pos;
      build_extra_pos;
      vars = Array.append pvars build_extra;
    }

let scan_edge q a b =
  match
    Array.to_list q.Query.edges
    |> List.find_opt (fun (e : Query.edge) ->
           (e.src = a && e.dst = b) || (e.src = b && e.dst = a))
  with
  | Some e -> e
  | None -> invalid_arg "Plan.wco: first two vertices are not adjacent"

let wco q order =
  let n = Array.length order in
  if n < 2 then invalid_arg "Plan.wco: need at least two vertices";
  let plan = ref (scan q (scan_edge q order.(0) order.(1))) in
  for k = 2 to n - 1 do
    plan := extend q !plan order.(k)
  done;
  !plan

let rec num_ei_operators = function
  | Scan _ -> 0
  | Extend { child; _ } -> 1 + num_ei_operators child
  | Hash_join { build; probe; _ } -> num_ei_operators build + num_ei_operators probe

let rec max_ei_chain p =
  let rec chain_at = function
    | Extend { child; _ } -> 1 + chain_at child
    | Scan _ | Hash_join _ -> 0
  in
  match p with
  | Scan _ -> 0
  | Extend { child; _ } -> max (chain_at p) (max_ei_chain child)
  | Hash_join { build; probe; _ } -> max (max_ei_chain build) (max_ei_chain probe)

let operators p =
  let acc = ref [] in
  let rec go depth node =
    acc := (node, depth) :: !acc;
    match node with
    | Scan _ -> ()
    | Extend { child; _ } -> go (depth + 1) child
    | Hash_join { build; probe; _ } ->
        go (depth + 1) build;
        go (depth + 1) probe
  in
  go 0 p;
  Array.of_list (List.rev !acc)

let op_label = function
  | Scan { edge; _ } -> Printf.sprintf "SCAN a%d->a%d" (edge.src + 1) (edge.dst + 1)
  | Extend { child; target; descriptors; _ } ->
      let cvars = vars child in
      Printf.sprintf "E/I a%d <- %s" (target + 1)
        (String.concat ","
           (Array.to_list descriptors
           |> List.map (fun d -> Printf.sprintf "a%d" (cvars.(d.pos) + 1))))
  | Hash_join { key; _ } ->
      Printf.sprintf "HASH-JOIN {%s}"
        (String.concat ","
           (Array.to_list key |> List.map (fun v -> Printf.sprintf "a%d" (v + 1))))

let dir_str = function Graph.Fwd -> "f" | Graph.Bwd -> "b"

let rec signature = function
  | Scan { edge; _ } -> Printf.sprintf "S(%d>%d@%d)" edge.src edge.dst edge.label
  | Extend { child; target; descriptors; _ } ->
      let cvars = vars child in
      let ds =
        Array.to_list descriptors
        |> List.map (fun d -> Printf.sprintf "%d%s%d" cvars.(d.pos) (dir_str d.dir) d.elabel)
        |> List.sort compare
        |> String.concat ","
      in
      Printf.sprintf "E(%s;%d;[%s])" (signature child) target ds
  | Hash_join { build; probe; key; _ } ->
      let ks = Array.to_list key |> List.map string_of_int |> String.concat "," in
      Printf.sprintf "J(%s;%s;[%s])" (signature build) (signature probe) ks

let rec pp fmt = function
  | Scan { edge; _ } ->
      Format.fprintf fmt "SCAN a%d->a%d" (edge.src + 1) (edge.dst + 1)
  | Extend { child; target; descriptors; _ } ->
      let cvars = vars child in
      Format.fprintf fmt "@[<v 0>E/I a%d <- {%s}@,  %a@]" (target + 1)
        (String.concat ", "
           (Array.to_list descriptors
           |> List.map (fun d ->
                  Printf.sprintf "a%d.%s@%d" (cvars.(d.pos) + 1)
                    (match d.dir with Graph.Fwd -> "fwd" | Graph.Bwd -> "bwd")
                    d.elabel)))
        pp child
  | Hash_join { build; probe; key; _ } ->
      Format.fprintf fmt "@[<v 0>HASH-JOIN on {%s}@,  build: %a@,  probe: %a@]"
        (String.concat ", " (Array.to_list key |> List.map (fun v -> Printf.sprintf "a%d" (v + 1))))
        pp build pp probe

let to_string p = Format.asprintf "%a" pp p

let to_dot p =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph plan {\n  node [shape=box, fontname=\"monospace\"];\n";
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "n%d" !counter
  in
  let var_list vs =
    String.concat " " (Array.to_list vs |> List.map (fun v -> Printf.sprintf "a%d" (v + 1)))
  in
  let rec go node =
    let id = fresh () in
    (match node with
    | Scan { edge; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "  %s [label=\"SCAN a%d->a%d\"];\n" id (edge.src + 1) (edge.dst + 1))
    | Extend { child; target; descriptors; vars = schema; _ } ->
        let cvars = vars child in
        let ds =
          Array.to_list descriptors
          |> List.map (fun d ->
                 Printf.sprintf "a%d.%s" (cvars.(d.pos) + 1) (dir_str d.dir))
          |> String.concat " & "
        in
        Buffer.add_string buf
          (Printf.sprintf "  %s [label=\"E/I a%d <- %s\\n{%s}\"];\n" id (target + 1) ds
             (var_list schema));
        let cid = go child in
        Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" id cid)
    | Hash_join { build; probe; key; vars = schema; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "  %s [label=\"HASH-JOIN on {%s}\\n{%s}\"];\n" id
             (String.concat " "
                (Array.to_list key |> List.map (fun v -> Printf.sprintf "a%d" (v + 1))))
             (var_list schema));
        let bid = go build and pid = go probe in
        Buffer.add_string buf (Printf.sprintf "  %s -> %s [label=\"build\"];\n" id bid);
        Buffer.add_string buf (Printf.sprintf "  %s -> %s [label=\"probe\"];\n" id pid));
    id
  in
  ignore (go p);
  Buffer.add_string buf "}\n";
  Buffer.contents buf


