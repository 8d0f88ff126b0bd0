module Int_vec = Gf_util.Int_vec

type applied = Applied | Noop

type error =
  | Vertex_out_of_range of int
  | Vlabel_out_of_range of int
  | Elabel_out_of_range of int
  | Self_loop of int
  | Tombstoned of int

let error_to_string = function
  | Vertex_out_of_range v -> Printf.sprintf "vertex %d out of range" v
  | Vlabel_out_of_range l -> Printf.sprintf "vertex label %d out of range" l
  | Elabel_out_of_range l -> Printf.sprintf "edge label %d out of range" l
  | Self_loop v -> Printf.sprintf "self-loop on vertex %d refused" v
  | Tombstoned v -> Printf.sprintf "vertex %d is deleted (tombstoned)" v

(* Overlay representation: flat membership sets for O(1) liveness tests
   plus per-partition sorted lists keyed like the CSR's slots — (u, elabel,
   nlabel) — so a partition's overlay view merges with the base slice in
   one ordered pass. Both views are kept in lockstep; partitions are small
   between merges, so sorted insertion into a list is fine. *)
type t = {
  mutable base : Graph.t;
  mutable merged_version : int;
  mutable version : int;
  add_set : (int * int * int, unit) Hashtbl.t;  (** (u, v, el) inserted, not in base *)
  del_set : (int * int * int, unit) Hashtbl.t;  (** (u, v, el) deleted, present in base *)
  add_parts : (int * int * int, int list) Hashtbl.t;  (** (u, el, nl) -> sorted dsts *)
  del_parts : (int * int * int, int list) Hashtbl.t;
  extra_vlabel : Int_vec.t;  (** labels of vertices appended past [base.n] *)
  tombs : (int, unit) Hashtbl.t;
  mutable tombs_pending : int;  (** tombstones applied since the last merge *)
}

let create ?(version = 0) base =
  {
    base;
    merged_version = version;
    version;
    add_set = Hashtbl.create 64;
    del_set = Hashtbl.create 64;
    add_parts = Hashtbl.create 64;
    del_parts = Hashtbl.create 64;
    extra_vlabel = Int_vec.create ();
    tombs = Hashtbl.create 16;
    tombs_pending = 0;
  }

let graph t = t.base
let version t = t.version
let merged_version t = t.merged_version

let live_vertices t = Graph.num_vertices t.base + Int_vec.length t.extra_vlabel
let live_edges t = Graph.num_edges t.base - Hashtbl.length t.del_set + Hashtbl.length t.add_set

let pending t =
  Hashtbl.length t.add_set + Hashtbl.length t.del_set + Int_vec.length t.extra_vlabel
  + t.tombs_pending

let tombstoned t v = Hashtbl.mem t.tombs v

let vlabel t v =
  let n = Graph.num_vertices t.base in
  if v < n then Graph.vlabel t.base v else Int_vec.get t.extra_vlabel (v - n)

let rec insert_sorted x = function
  | [] -> [ x ]
  | y :: _ as l when x < y -> x :: l
  | y :: rest when x = y -> y :: rest
  | y :: rest -> y :: insert_sorted x rest

let rec remove_sorted x = function
  | [] -> []
  | y :: rest when y = x -> rest
  | y :: _ as l when y > x -> l
  | y :: rest -> y :: remove_sorted x rest

let part_add tbl key v =
  let l = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
  Hashtbl.replace tbl key (insert_sorted v l)

let part_remove tbl key v =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some l -> (
      match remove_sorted v l with
      | [] -> Hashtbl.remove tbl key
      | l' -> Hashtbl.replace tbl key l')

(* Edge liveness in the base CSR only (ignores the overlay). Appended
   vertices have no base adjacency. *)
let base_has t u v el =
  let n = Graph.num_vertices t.base in
  u < n && v < n && Graph.has_edge t.base u v ~elabel:el

let check_vertex t v = if v < 0 || v >= live_vertices t then Error (Vertex_out_of_range v) else Ok ()

let check_live_vertex t v =
  match check_vertex t v with
  | Error _ as e -> e
  | Ok () -> if Hashtbl.mem t.tombs v then Error (Tombstoned v) else Ok ()

let check_elabel t el =
  if el < 0 || el >= Graph.num_elabels t.base then Error (Elabel_out_of_range el) else Ok ()

let ( let* ) = Result.bind

let bump t = t.version <- t.version + 1
let tick t = bump t

let add_edge t u v ~elabel =
  let* () = check_live_vertex t u in
  let* () = check_live_vertex t v in
  let* () = check_elabel t elabel in
  let* () = if u = v then Error (Self_loop u) else Ok () in
  bump t;
  let key = (u, v, elabel) in
  if Hashtbl.mem t.add_set key then Ok Noop
  else if Hashtbl.mem t.del_set key then begin
    (* Re-inserting an edge the overlay had deleted: cancel the delete. *)
    Hashtbl.remove t.del_set key;
    part_remove t.del_parts (u, elabel, vlabel t v) v;
    Ok Applied
  end
  else if base_has t u v elabel then Ok Noop
  else begin
    Hashtbl.replace t.add_set key ();
    part_add t.add_parts (u, elabel, vlabel t v) v;
    Ok Applied
  end

let del_edge t u v ~elabel =
  let* () = check_vertex t u in
  let* () = check_vertex t v in
  let* () = check_elabel t elabel in
  bump t;
  let key = (u, v, elabel) in
  if Hashtbl.mem t.add_set key then begin
    Hashtbl.remove t.add_set key;
    part_remove t.add_parts (u, elabel, vlabel t v) v;
    Ok Applied
  end
  else if Hashtbl.mem t.del_set key then Ok Noop
  else if base_has t u v elabel then begin
    Hashtbl.replace t.del_set key ();
    part_add t.del_parts (u, elabel, vlabel t v) v;
    Ok Applied
  end
  else Ok Noop

let add_vertex t ~label =
  let* () =
    if label < 0 || label >= Graph.num_vlabels t.base then Error (Vlabel_out_of_range label)
    else Ok ()
  in
  bump t;
  let id = live_vertices t in
  Int_vec.push t.extra_vlabel label;
  Ok id

let del_vertex t v =
  let* () = check_vertex t v in
  bump t;
  if Hashtbl.mem t.tombs v then Ok Noop
  else begin
    (* Delete overlay edges incident to [v] first (full scan of the
       overlay set: tombstoning is rare and the overlay is small between
       merges), then every base edge incident to [v]. *)
    let overlay_incident =
      Hashtbl.fold
        (fun ((u, w, _) as key) () acc -> if u = v || w = v then key :: acc else acc)
        t.add_set []
    in
    List.iter
      (fun ((u, w, el) as key) ->
        Hashtbl.remove t.add_set key;
        part_remove t.add_parts (u, el, vlabel t w) w)
      overlay_incident;
    let n = Graph.num_vertices t.base in
    if v < n then begin
      let del_base u w el =
        let key = (u, w, el) in
        if not (Hashtbl.mem t.del_set key) then begin
          Hashtbl.replace t.del_set key ();
          part_add t.del_parts (u, el, vlabel t w) w
        end
      in
      for el = 0 to Graph.num_elabels t.base - 1 do
        let out = Graph.neighbours_any_nlabel t.base Graph.Fwd v ~elabel:el in
        let arr, lo, hi = out in
        Gf_util.Buf.iter_range (fun w -> del_base v w el) arr lo hi;
        let inc = Graph.neighbours_any_nlabel t.base Graph.Bwd v ~elabel:el in
        let arr, lo, hi = inc in
        Gf_util.Buf.iter_range (fun u -> del_base u v el) arr lo hi
      done
    end;
    Hashtbl.replace t.tombs v ();
    t.tombs_pending <- t.tombs_pending + 1;
    Ok Applied
  end

let mem_edge t u v ~elabel =
  u >= 0
  && v >= 0
  && u < live_vertices t
  && v < live_vertices t
  &&
  let key = (u, v, elabel) in
  if Hashtbl.mem t.add_set key then true
  else if Hashtbl.mem t.del_set key then false
  else base_has t u v elabel

let neighbours t u ~elabel ~nlabel =
  let adds = Option.value (Hashtbl.find_opt t.add_parts (u, elabel, nlabel)) ~default:[] in
  let dels = Option.value (Hashtbl.find_opt t.del_parts (u, elabel, nlabel)) ~default:[] in
  let base =
    if u < Graph.num_vertices t.base then begin
      let arr, lo, hi = Graph.neighbours t.base Graph.Fwd u ~elabel ~nlabel in
      Gf_util.Buf.sub_array arr lo hi
    end
    else [||]
  in
  (* One ordered pass: both the base slice and the overlay lists are
     sorted, deletions only name base members, insertions never do. *)
  let out = ref [] in
  let adds = ref adds and dels = ref dels in
  let emit x = out := x :: !out in
  Array.iter
    (fun x ->
      (* Flush insertions below x. *)
      let rec flush () =
        match !adds with
        | a :: rest when a < x ->
            emit a;
            adds := rest;
            flush ()
        | _ -> ()
      in
      flush ();
      match !dels with
      | d :: rest when d = x -> dels := rest
      | _ -> emit x)
    base;
  List.iter emit !adds;
  Array.of_list (List.rev !out)

let edge_array t =
  let live = ref [] in
  Array.iter
    (fun ((u, v, el) as e) -> if not (Hashtbl.mem t.del_set (u, v, el)) then live := e :: !live)
    (Graph.edge_array t.base);
  Hashtbl.iter (fun e () -> live := e :: !live) t.add_set;
  let a = Array.of_list !live in
  Array.sort compare a;
  a

let merge t =
  if pending t = 0 then begin
    t.merged_version <- t.version;
    t.base
  end
  else begin
    let n = live_vertices t in
    let base_n = Graph.num_vertices t.base in
    let vlabels = Array.init n (fun v -> if v < base_n then Graph.vlabel t.base v else Int_vec.get t.extra_vlabel (v - base_n)) in
    let edges = edge_array t in
    let g =
      Graph.build ~num_vlabels:(Graph.num_vlabels t.base) ~num_elabels:(Graph.num_elabels t.base)
        ~vlabel:vlabels ~edges
    in
    t.base <- g;
    t.merged_version <- t.version;
    Hashtbl.reset t.add_set;
    Hashtbl.reset t.del_set;
    Hashtbl.reset t.add_parts;
    Hashtbl.reset t.del_parts;
    Int_vec.clear t.extra_vlabel;
    t.tombs_pending <- 0;
    g
  end
