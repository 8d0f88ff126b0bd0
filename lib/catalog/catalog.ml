module Graph = Gf_graph.Graph
module Query = Gf_query.Query
module Canon = Gf_query.Canon
module Rng = Gf_util.Rng
module Sorted = Gf_util.Sorted
module Plan = Gf_plan.Plan

type work = { merged : float; galloped : float; probed : float }

type entry = {
  mu : float;
  sizes : ((int * Graph.direction * int) * float) list;
  total_size : float;
  samples : int;
  kernel : (work * work) array;
  all_work : work;
}

type stat = { size : float; step : work; stable : work }

let no_work = { merged = 0.0; galloped = 0.0; probed = 0.0 }
let freeze (w : Sorted.work) weight =
  { merged = w.merged /. weight; galloped = w.galloped /. weight; probed = w.probed /. weight }

(* A v1 or v2 entry loaded from a file has no work statistics: it is
   sampled again on first use. *)
let current e = Array.length e.kernel = List.length e.sizes

(* The work of intersecting the lists of [sizes] but list [skip] (-1:
   none) with no bitmap row, each intersection as long as its shortest
   input: the estimate for lists the catalogue did not walk. *)
let cascade_work sizes skip =
  let w = Sorted.work () in
  let a = ref infinity and at = ref (-1) in
  Array.iteri (fun j s -> if j <> skip && s < !a then (a := s; at := j)) sizes;
  Array.iteri
    (fun j b -> if j <> skip && j <> !at then Sorted.step_work w 1.0 ~a:!a ~b ~row:false)
    sizes;
  freeze w 1.0

let analytic sizes =
  let stats =
    Array.mapi
      (fun i size ->
        let s = ref infinity in
        Array.iteri (fun j x -> if j <> i then s := Float.min !s x) sizes;
        let step = if !s = infinity then no_work else cascade_work [| !s; size |] (-1) in
        { size; step; stable = cascade_work sizes i })
      sizes
  in
  (stats, cascade_work sizes (-1))

type t = {
  g : Graph.t;
  h : int;
  z : int;
  seed : int;
  (* Guards the four lazy tables, which request threads share: held for
     lookups and inserts only, never while sampling or counting. *)
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  edge_lists : (int * int * int, int array) Hashtbl.t;
  edge_counts : (int * int * int, int) Hashtbl.t;
  avg_sizes : (Graph.direction * int * int * int, float) Hashtbl.t;
}

let create ?(h = 3) ?(z = 1000) ?(seed = 7) g =
  if h < 2 then invalid_arg "Catalog.create: h must be >= 2";
  if z < 1 then invalid_arg "Catalog.create: z must be >= 1";
  {
    g;
    h;
    z;
    seed;
    lock = Mutex.create ();
    entries = Hashtbl.create 1024;
    edge_lists = Hashtbl.create 64;
    edge_counts = Hashtbl.create 64;
    avg_sizes = Hashtbl.create 64;
  }

let h t = t.h
let z t = t.z
let graph t = t.g
let locked t f = Mutex.protect t.lock f

(* [tbl]'s value for [key], computed by [make] outside the lock when there
   is none or it is not [fresh]. A value is a function of the graph, the
   seed and the key, so when two threads race, both compute the same one
   and the first insert wins. *)
let memo ?(fresh = fun _ -> true) t tbl key make =
  match locked t (fun () -> Hashtbl.find_opt tbl key) with
  | Some v when fresh v -> v
  | _ ->
      let v = make () in
      locked t (fun () ->
          match Hashtbl.find_opt tbl key with
          | Some v when fresh v -> v
          | _ ->
              Hashtbl.replace tbl key v;
              v)

let num_entries t = locked t (fun () -> Hashtbl.length t.entries)

let entries t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (locked t (fun () -> Hashtbl.fold (fun code e acc -> (code, e) :: acc) t.entries []))

let edge_count t ~elabel ~slabel ~dlabel =
  memo t t.edge_counts (elabel, slabel, dlabel) (fun () ->
      Graph.count_edges t.g ~elabel ~slabel ~dlabel)

let edge_list t ~elabel ~slabel ~dlabel =
  memo t t.edge_lists (elabel, slabel, dlabel) (fun () ->
      Wander.edge_pool t.g ~elabel ~slabel ~dlabel)

let avg_partition_size t ~dir ~slabel ~elabel ~nlabel =
  memo t t.avg_sizes (dir, slabel, elabel, nlabel) (fun () ->
      let vs = Graph.vertices_with_label t.g slabel in
      let total =
        Array.fold_left
          (fun acc v -> acc + Graph.partition_size t.g dir v ~elabel ~nlabel)
          0 vs
      in
      if Array.length vs = 0 then 0.0
      else float_of_int total /. float_of_int (Array.length vs))

(* Section 5.1: sample min z npool distinct scan edges and walk the
   Q_{k-1} prefix from each one, all in one walk-kernel call
   ({!Wander.walks}). A walk of weight w (the product of the fan-outs it
   chose from) adds w·|ext| to the μ sum, w·|L_i| to each list's size sum
   and w times each intersection's work to its work sum at the last step,
   so every sampled edge gets the same budget whatever its subtree. [qk]
   is in canonical form, so descriptor sources are already canonical
   vertex ids. *)
let sample_entry t rng qk new_v =
  let k = Query.num_vertices qk in
  if k < 3 then invalid_arg "Catalog.entry: the pattern needs at least three vertices";
  let order = Query.first_connected_order ~last:new_v qk in
  let starts npool =
    if t.z >= npool then Array.init npool Fun.id
    else Rng.sample_without_replacement rng ~n:npool ~k:t.z
  in
  let s = Wander.walks ~edges:(edge_list t) t.g qk ~order ~starts rng in
  (* Unmeasured: μ = 0, every final list at its global per-label average. *)
  let size i (d : Plan.descriptor) =
    if s.walked > 0 then s.sizes.(i) /. s.weight
    else
      avg_partition_size t ~dir:d.dir ~slabel:(Query.vlabel qk order.(d.pos)) ~elabel:d.elabel
        ~nlabel:(Query.vlabel qk new_v)
  in
  let sizes =
    Array.to_list s.last
    |> List.mapi (fun i (d : Plan.descriptor) -> ((order.(d.pos), d.dir, d.elabel), size i d))
  in
  if s.walked = 0 then begin
    let stats, all_work = analytic (Array.of_list (List.map snd sizes)) in
    {
      mu = 0.0;
      sizes;
      total_size = 0.0;
      samples = 0;
      kernel = Array.map (fun st -> (st.step, st.stable)) stats;
      all_work;
    }
  end
  else
    let w = s.weight in
    {
      mu = s.ext /. w;
      sizes;
      total_size = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 sizes;
      samples = s.walked;
      kernel = Array.map2 (fun st sb -> (freeze st w, freeze sb w)) s.step s.stable;
      all_work = freeze s.all w;
    }

(* [qk] renumbered by its canonical permutation, edges sorted: every
   numbering of a pattern (with the same marked vertex) gives one value. *)
let canonical_form qk perm =
  let vlabels = Array.make (Query.num_vertices qk) 0 in
  Array.iteri (fun v l -> vlabels.(perm.(v)) <- l) qk.Query.vlabels;
  let edges =
    Array.map
      (fun (e : Query.edge) -> { e with Query.src = perm.(e.src); dst = perm.(e.dst) })
      qk.Query.edges
  in
  (* [compare]'s order on edges, without its polymorphic walk. *)
  Array.sort
    (fun (a : Query.edge) (b : Query.edge) ->
      let c = Int.compare a.src b.src in
      if c <> 0 then c
      else
        let c = Int.compare a.dst b.dst in
        if c <> 0 then c else Int.compare a.label b.label)
    edges;
  Query.create ~num_vertices:(Query.num_vertices qk) ~vlabels ~edges ()

(* The entry whose canonical code and permutation are [code] and [perm],
   sampled on first use from the canonical form, with a generator seeded by
   the catalogue seed and the code. An entry thus depends only on the
   pattern: not on how the requesting query numbers its vertices, nor on
   which entries were sampled before it. *)
let find_entry t qk new_vertex (code, perm) =
  memo ~fresh:current t t.entries code (fun () ->
      let rng = Rng.create (Hashtbl.seeded_hash t.seed code) in
      let e = sample_entry t rng (canonical_form qk perm) perm.(new_vertex) in
      Gf_exec.Metrics.inc
        (Gf_exec.Metrics.counter ~help:"Catalogue entries sampled"
           "gf_catalog_entries_sampled_total");
      e)

let entry t qk ~new_vertex =
  if Query.num_vertices qk > t.h + 1 then None
  else Some (find_entry t qk new_vertex (Canon.code ~mark:new_vertex qk))

let global_size t qk ~new_vertex (src, dir, elabel) =
  avg_partition_size t ~dir ~slabel:(Query.vlabel qk src) ~elabel
    ~nlabel:(Query.vlabel qk new_vertex)

type extension = { mu : float option; stats : stat array; all : work }

let descriptor_stats t qk ~new_vertex descriptors =
  let global mu =
    let stats, all = analytic (Array.map (global_size t qk ~new_vertex) descriptors) in
    { mu; stats; all }
  in
  if Query.num_vertices qk > t.h + 1 then global None
  else begin
    let ((_, perm) as canon) = Canon.code ~mark:new_vertex qk in
    let e = find_entry t qk new_vertex canon in
    let index (src, dir, elabel) =
      let key = (perm.(src), dir, elabel) in
      let rec go i = function
        | [] -> None
        | (k, _) :: rest -> if k = key then Some i else go (i + 1) rest
      in
      go 0 e.sizes
    in
    let found = Array.map index descriptors in
    if e.samples = 0 || Array.exists Option.is_none found then global (Some e.mu)
    else
      {
        mu = Some e.mu;
        stats =
          Array.map
            (fun i ->
              let i = Option.get i in
              let step, stable = e.kernel.(i) in
              { size = snd (List.nth e.sizes i); step; stable })
            found;
        all = e.all_work;
      }
  end

let descriptor_size t qk ~new_vertex ~src ~dir ~elabel =
  (descriptor_stats t qk ~new_vertex [| (src, dir, elabel) |]).stats.(0).size

(* ---------- exhaustive construction (Tables 10-11) ---------- *)

let build_exhaustive t =
  let g = t.g in
  let nv = Graph.num_vlabels g and ne = Graph.num_elabels g in
  (* Level-2 patterns: one per (elabel, slabel, dlabel). *)
  let level2 =
    List.concat_map
      (fun el ->
        List.concat_map
          (fun sl ->
            List.map
              (fun dl ->
                Query.create ~num_vertices:2 ~vlabels:[| sl; dl |]
                  ~edges:[| { Query.src = 0; dst = 1; label = el } |]
                  ())
              (List.init nv (fun i -> i)))
          (List.init nv (fun i -> i)))
      (List.init ne (fun i -> i))
  in
  (* Connection options for the new vertex towards one existing vertex:
     nothing, or a single directed labeled edge either way. *)
  let conn_options = ref [ None ] in
  for el = ne - 1 downto 0 do
    conn_options := Some (`Out, el) :: Some (`In, el) :: !conn_options
  done;
  let conn_options = Array.of_list !conn_options in
  let extend_pattern (q : Query.t) =
    (* All ways to attach one new vertex. *)
    let j = Query.num_vertices q in
    let results = ref [] in
    let assignment = Array.make j None in
    let rec assign i any =
      if i = j then begin
        if any then
          for lv = 0 to nv - 1 do
            let new_edges =
              Array.to_list assignment
              |> List.mapi (fun src c ->
                     match c with
                     | None -> []
                     | Some (`Out, el) -> [ { Query.src; dst = j; label = el } ]
                     | Some (`In, el) -> [ { Query.src = j; dst = src; label = el } ])
              |> List.concat
            in
            let qk =
              Query.create ~num_vertices:(j + 1)
                ~vlabels:(Array.append q.Query.vlabels [| lv |])
                ~edges:(Array.append q.Query.edges (Array.of_list new_edges))
                ()
            in
            results := qk :: !results
          done
      end
      else
        Array.iter
          (fun c ->
            assignment.(i) <- c;
            assign (i + 1) (any || c <> None))
          conn_options
    in
    assign 0 false;
    !results
  in
  let seen_patterns = Hashtbl.create 256 in
  let dedup qs =
    List.filter
      (fun q ->
        let code, _ = Canon.code q in
        if Hashtbl.mem seen_patterns code then false
        else begin
          Hashtbl.replace seen_patterns code ();
          true
        end)
      qs
  in
  let level = ref (dedup level2) in
  for j = 2 to t.h do
    let next = ref [] in
    List.iter
      (fun q ->
        List.iter
          (fun qk ->
            (* Materialize the entry for this extension. *)
            ignore (entry t qk ~new_vertex:j);
            if j + 1 <= t.h then next := qk :: !next)
          (extend_pattern q))
      !level;
    level := dedup !next
  done;
  num_entries t

(* Crash-safe: temp sibling + rename ({!Gf_util.Atomic_file}). The
   parameter line carries the entry count and a trailing [end] marker
   closes the file, so [load_result] can tell a torn file from a complete
   one. v3 adds the work statistics: an entry line ends with its
   all-lists work, a size line with its list's step and stable work. *)
let save t path =
  let work oc w = Printf.fprintf oc " %.17g %.17g %.17g" w.merged w.galloped w.probed in
  let saved = List.filter (fun (_, (e : entry)) -> current e) (entries t) in
  Gf_util.Atomic_file.write path (fun oc ->
      Printf.fprintf oc "graphflow-catalog v3\n%d %d %d\n" t.h t.z (List.length saved);
      List.iter
        (fun (code, (e : entry)) ->
          Printf.fprintf oc "entry %s %.17g %.17g %d %d" code e.mu e.total_size e.samples
            (List.length e.sizes);
          work oc e.all_work;
          output_char oc '\n';
          List.iteri
            (fun i ((v, dir, el), s) ->
              Printf.fprintf oc "size %d %c %d %.17g" v
                (match dir with Graph.Fwd -> 'f' | Graph.Bwd -> 'b')
                el s;
              let step, stable = e.kernel.(i) in
              work oc step;
              work oc stable;
              output_char oc '\n')
            e.sizes)
        saved;
      Printf.fprintf oc "end\n")

type load_error = { path : string; line : int; kind : error_kind }

and error_kind =
  | Unreadable of string
  | Bad_header of string
  | Bad_params of string
  | Bad_token of string
  | Orphan_size
  | Size_count_mismatch of { expected : int; got : int }
  | Truncated of { expected_entries : int; got : int }

let kind_to_string = function
  | Unreadable msg -> "cannot read: " ^ msg
  | Bad_header h ->
      Printf.sprintf "bad header %S (expected \"graphflow-catalog v1|v2|v3\")" h
  | Bad_params p -> Printf.sprintf "bad parameter line %S (expected \"h z [entries]\")" p
  | Bad_token tok -> Printf.sprintf "malformed token %S" tok
  | Orphan_size -> "size line without a preceding entry"
  | Size_count_mismatch { expected; got } ->
      Printf.sprintf "entry declares %d size lines, got %d (truncated?)" expected got
  | Truncated { expected_entries; got } ->
      Printf.sprintf
        "truncated file: expected %d entries and a trailing \"end\" marker, got %d"
        expected_entries got

let load_error_to_string e =
  if e.line > 0 then
    Printf.sprintf "Catalog.load %s, line %d: %s" e.path e.line (kind_to_string e.kind)
  else Printf.sprintf "Catalog.load %s: %s" e.path (kind_to_string e.kind)

let pp_load_error fmt e = Format.pp_print_string fmt (load_error_to_string e)

exception Err of load_error

let load_result g path =
  match open_in path with
  | exception Sys_error msg -> Error { path; line = 0; kind = Unreadable msg }
  | ic -> (
      let lineno = ref 0 in
      let fail kind = raise (Err { path; line = !lineno; kind }) in
      let int_of tok =
        match int_of_string_opt tok with Some i -> i | None -> fail (Bad_token tok)
      in
      let float_of tok =
        match float_of_string_opt tok with Some f -> f | None -> fail (Bad_token tok)
      in
      try
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            incr lineno;
            let header =
              try input_line ic with End_of_file -> fail (Bad_header "<empty file>")
            in
            let version =
              match header with
              | "graphflow-catalog v3" -> 3
              | "graphflow-catalog v2" -> 2
              | "graphflow-catalog v1" -> 1
              | h -> fail (Bad_header h)
            in
            incr lineno;
            let params =
              try input_line ic
              with End_of_file -> fail (Bad_params "<end of file>")
            in
            let h, z, expected_entries =
              match (version, String.split_on_char ' ' params) with
              | 1, [ a; b ] -> (int_of a, int_of b, None)
              | (2 | 3), [ a; b; c ] -> (int_of a, int_of b, Some (int_of c))
              | _ -> fail (Bad_params params)
            in
            let t =
              match create ~h ~z g with
              | t -> t
              | exception Invalid_argument msg -> fail (Bad_params msg)
            in
            let work m g p = { merged = float_of m; galloped = float_of g; probed = float_of p } in
            (* (code, entry with its sizes and kernel reversed, declared size
               count); a v1 or v2 entry has no kernel. *)
            let pending = ref None in
            let flush_pending () =
              match !pending with
              | Some (code, e, declared) ->
                  let got = List.length e.sizes in
                  if got <> declared then
                    fail (Size_count_mismatch { expected = declared; got });
                  Hashtbl.replace t.entries code
                    {
                      e with
                      sizes = List.rev e.sizes;
                      kernel = Array.of_list (List.rev (Array.to_list e.kernel));
                    };
                  pending := None
              | None -> ()
            in
            let start code mu total samples nsizes all_work =
              flush_pending ();
              pending :=
                Some
                  ( code,
                    {
                      mu = float_of mu;
                      total_size = float_of total;
                      samples = int_of samples;
                      sizes = [];
                      kernel = [||];
                      all_work;
                    },
                    int_of nsizes )
            in
            let size v dir el s kernel =
              match !pending with
              | None -> fail Orphan_size
              | Some (code, e, declared) ->
                  let d =
                    match dir with "f" -> Graph.Fwd | "b" -> Graph.Bwd | _ -> fail (Bad_token dir)
                  in
                  let e =
                    {
                      e with
                      sizes = ((int_of v, d, int_of el), float_of s) :: e.sizes;
                      kernel = Array.append kernel e.kernel;
                    }
                  in
                  pending := Some (code, e, declared)
            in
            let finished = ref false in
            (try
               while not !finished do
                 incr lineno;
                 let line = input_line ic in
                 match (version, String.split_on_char ' ' line) with
                 | (1 | 2), [ "entry"; code; mu; total; samples; nsizes ] ->
                     start code mu total samples nsizes no_work
                 | 3, [ "entry"; code; mu; total; samples; nsizes; m; g; p ] ->
                     start code mu total samples nsizes (work m g p)
                 | (1 | 2), [ "size"; v; dir; el; s ] -> size v dir el s [||]
                 | 3, [ "size"; v; dir; el; s; km; kg; kp; sm; sg; sp ] ->
                     size v dir el s [| (work km kg kp, work sm sg sp) |]
                 | _, [ "end" ] ->
                     flush_pending ();
                     finished := true
                 | _, [ "" ] -> ()
                 | _ -> fail (Bad_token line)
               done
             with End_of_file -> ());
            flush_pending ();
            (match expected_entries with
            | Some n ->
                let got = Hashtbl.length t.entries in
                if (not !finished) || got <> n then begin
                  lineno := 0;
                  fail (Truncated { expected_entries = n; got })
                end
            | None -> ());
            Ok t)
      with Err e -> Error e)

let load g path =
  match load_result g path with
  | Ok t -> t
  | Error e -> failwith (load_error_to_string e)

let q_error ~estimate ~truth =
  let e = Float.max 1.0 estimate and r = Float.max 1.0 truth in
  Float.max (e /. r) (r /. e)

let pp_entry fmt (e : entry) =
  Format.fprintf fmt "mu=%.3f samples=%d sizes=[%s]" e.mu e.samples
    (String.concat "; "
       (List.map
          (fun ((v, dir, el), s) ->
            Printf.sprintf "%d.%s@%d:%.1f" v
              (match dir with Graph.Fwd -> "fwd" | Graph.Bwd -> "bwd")
              el s)
          e.sizes))
