open Gf_graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Small labeled fixture:
   vertices 0..4, vlabels [0;1;0;1;0]
   edges: 0->1(e0) 0->2(e0) 0->3(e1) 1->2(e0) 3->2(e0) 4->0(e0) 2->4(e1) *)
let fixture () =
  Graph.build ~num_vlabels:2 ~num_elabels:2 ~vlabel:[| 0; 1; 0; 1; 0 |]
    ~edges:[| (0, 1, 0); (0, 2, 0); (0, 3, 1); (1, 2, 0); (3, 2, 0); (4, 0, 0); (2, 4, 1) |]

let test_build_counts () =
  let g = fixture () in
  check_int "n" 5 (Graph.num_vertices g);
  check_int "m" 7 (Graph.num_edges g);
  check_int "nv" 2 (Graph.num_vlabels g);
  check_int "ne" 2 (Graph.num_elabels g);
  check_int "vlabel 1" 1 (Graph.vlabel g 1)

let test_build_dedup_and_self_loops () =
  let g =
    Graph.build ~num_vlabels:1 ~num_elabels:1 ~vlabel:[| 0; 0 |]
      ~edges:[| (0, 1, 0); (0, 1, 0); (1, 1, 0); (1, 0, 0) |]
  in
  check_int "dedup + no self loop" 2 (Graph.num_edges g)

let test_neighbours_partitions () =
  let g = fixture () in
  (* Vertex 0 forward: label-0 edges to {1 (vl 1), 2 (vl 0)}; label-1 edge to 3. *)
  let sub (arr, lo, hi) = Gf_util.Buf.sub_array arr lo hi in
  Alcotest.(check (array int))
    "0 fwd e0 nl0" [| 2 |]
    (sub (Graph.neighbours g Graph.Fwd 0 ~elabel:0 ~nlabel:0));
  Alcotest.(check (array int))
    "0 fwd e0 nl1" [| 1 |]
    (sub (Graph.neighbours g Graph.Fwd 0 ~elabel:0 ~nlabel:1));
  Alcotest.(check (array int))
    "0 fwd e1 nl1" [| 3 |]
    (sub (Graph.neighbours g Graph.Fwd 0 ~elabel:1 ~nlabel:1));
  (* Vertex 2 backward, label 0: sources {0, 1, 3}; partition by source label. *)
  Alcotest.(check (array int))
    "2 bwd e0 nl0" [| 0 |]
    (sub (Graph.neighbours g Graph.Bwd 2 ~elabel:0 ~nlabel:0));
  Alcotest.(check (array int))
    "2 bwd e0 nl1" [| 1; 3 |]
    (sub (Graph.neighbours g Graph.Bwd 2 ~elabel:0 ~nlabel:1))

let test_degree_and_partition_size () =
  let g = fixture () in
  check_int "deg fwd 0" 3 (Graph.degree g Graph.Fwd 0);
  check_int "deg bwd 2" 3 (Graph.degree g Graph.Bwd 2);
  check_int "deg bwd 0" 1 (Graph.degree g Graph.Bwd 0);
  check_int "psize" 2 (Graph.partition_size g Graph.Bwd 2 ~elabel:0 ~nlabel:1)

let test_has_edge () =
  let g = fixture () in
  check_bool "0->1 e0" true (Graph.has_edge g 0 1 ~elabel:0);
  check_bool "0->1 e1" false (Graph.has_edge g 0 1 ~elabel:1);
  check_bool "1->0" false (Graph.has_edge g 1 0 ~elabel:0);
  check_bool "2->4 e1" true (Graph.has_edge g 2 4 ~elabel:1)

let test_vertices_with_label () =
  let g = fixture () in
  Alcotest.(check (array int)) "label 0" [| 0; 2; 4 |] (Graph.vertices_with_label g 0);
  Alcotest.(check (array int)) "label 1" [| 1; 3 |] (Graph.vertices_with_label g 1)

let test_iter_edges () =
  let g = fixture () in
  let acc = ref [] in
  Graph.iter_edges g ~elabel:0 ~slabel:0 ~dlabel:0 (fun u v -> acc := (u, v) :: !acc);
  Alcotest.(check (list (pair int int)))
    "scan e0 l0->l0"
    [ (0, 2); (4, 0) ]
    (List.sort compare !acc);
  check_int "count agrees" 2 (Graph.count_edges g ~elabel:0 ~slabel:0 ~dlabel:0)

let test_iter_edges_range_partitions_work () =
  let g = fixture () in
  (* label-0 sources are [0;2;4]; ranges [0,1) + [1,3) must equal full scan. *)
  let collect lo hi =
    let acc = ref [] in
    Graph.iter_edges_range g ~elabel:0 ~slabel:0 ~dlabel:0 ~lo ~hi (fun u v ->
        acc := (u, v) :: !acc);
    !acc
  in
  let full = collect 0 3 in
  let split = collect 0 1 @ collect 1 3 in
  Alcotest.(check (list (pair int int)))
    "range split = full" (List.sort compare full) (List.sort compare split)

let test_sample_edge () =
  let g = fixture () in
  let rng = Gf_util.Rng.create 1 in
  for _ = 1 to 50 do
    match Graph.sample_edge g rng ~elabel:0 ~slabel:0 ~dlabel:0 with
    | None -> Alcotest.fail "expected an edge"
    | Some (u, v) -> check_bool "sampled edge valid" true (List.mem (u, v) [ (0, 2); (4, 0) ])
  done;
  check_bool "no match -> None" true
    (Graph.sample_edge g rng ~elabel:1 ~slabel:1 ~dlabel:1 = None)

let test_sample_edge_uniform () =
  let g = fixture () in
  let rng = Gf_util.Rng.create 2 in
  let c02 = ref 0 and c32 = ref 0 in
  for _ = 1 to 2000 do
    match Graph.sample_edge g rng ~elabel:0 ~slabel:0 ~dlabel:0 with
    | Some (0, 2) -> incr c02
    | Some (4, 0) -> incr c32
    | _ -> Alcotest.fail "unexpected edge"
  done;
  check_bool "roughly uniform" true (abs (!c02 - !c32) < 300)

let test_edge_array_roundtrip () =
  let g = fixture () in
  let edges = Graph.edge_array g in
  check_int "edge count" 7 (Array.length edges);
  let g2 =
    Graph.build ~num_vlabels:2 ~num_elabels:2
      ~vlabel:(Array.init 5 (Graph.vlabel g))
      ~edges
  in
  Alcotest.(check (list (triple int int int)))
    "round trip"
    (Array.to_list (Graph.edge_array g) |> List.sort compare)
    (Array.to_list (Graph.edge_array g2) |> List.sort compare)

let test_relabel () =
  let g = fixture () in
  let g2 = Graph.relabel g (Gf_util.Rng.create 3) ~num_vlabels:3 ~num_elabels:2 in
  check_int "same n" 5 (Graph.num_vertices g2);
  check_int "same m" 7 (Graph.num_edges g2);
  check_int "new nv" 3 (Graph.num_vlabels g2);
  let unlabeled (u, v, _) = (u, v) in
  Alcotest.(check (list (pair int int)))
    "same topology"
    (Array.to_list (Graph.edge_array g) |> List.map unlabeled |> List.sort compare)
    (Array.to_list (Graph.edge_array g2) |> List.map unlabeled |> List.sort compare)

(* ---------- generators ---------- *)

let test_erdos_renyi () =
  let g = Generators.erdos_renyi (Gf_util.Rng.create 4) ~n:100 ~m:400 in
  check_int "n" 100 (Graph.num_vertices g);
  check_int "m" 400 (Graph.num_edges g)

let test_barabasi_albert_skew () =
  let g = Generators.barabasi_albert (Gf_util.Rng.create 5) ~n:2000 ~m_per:5 ~recip:0.0 in
  let s = Stats.summarize ~samples:200 g in
  check_bool "in-degree more skewed than out"
    true
    (s.Stats.in_degree_cv > s.Stats.out_degree_cv +. 0.5)

let test_holme_kim_clustering () =
  let rng1 = Gf_util.Rng.create 6 and rng2 = Gf_util.Rng.create 6 in
  let low = Generators.holme_kim rng1 ~n:2000 ~m_per:5 ~p_triad:0.0 ~recip:0.2 in
  let high = Generators.holme_kim rng2 ~n:2000 ~m_per:5 ~p_triad:0.8 ~recip:0.2 in
  let cl g = (Stats.summarize ~samples:300 g).Stats.avg_clustering in
  check_bool "triad formation raises clustering" true (cl high > cl low *. 1.5)

let test_datasets_build () =
  List.iter
    (fun name ->
      let g = Generators.dataset ~scale:0.02 name in
      check_bool
        (Generators.dataset_name_to_string name ^ " nonempty")
        true
        (Graph.num_vertices g > 0 && Graph.num_edges g > 0))
    Generators.all_dataset_names

let test_dataset_names () =
  check_bool "roundtrip" true
    (List.for_all
       (fun d ->
         Generators.dataset_name_of_string (Generators.dataset_name_to_string d) = Some d)
       Generators.all_dataset_names);
  check_bool "unknown" true (Generators.dataset_name_of_string "nope" = None)

let test_io_roundtrip () =
  let g =
    Generators.erdos_renyi (Gf_util.Rng.create 7) ~n:50 ~m:120
    |> fun g -> Graph.relabel g (Gf_util.Rng.create 8) ~num_vlabels:3 ~num_elabels:2
  in
  let path = Filename.temp_file "gf_test" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save g path;
      let g2 = Graph_io.load path in
      check_int "n" (Graph.num_vertices g) (Graph.num_vertices g2);
      check_int "m" (Graph.num_edges g) (Graph.num_edges g2);
      Alcotest.(check (list (triple int int int)))
        "edges"
        (Array.to_list (Graph.edge_array g) |> List.sort compare)
        (Array.to_list (Graph.edge_array g2) |> List.sort compare);
      for v = 0 to Graph.num_vertices g - 1 do
        check_int "vlabel" (Graph.vlabel g v) (Graph.vlabel g2 v)
      done)

(* The binary snapshot: bit-identical round trip through save + mmap load,
   auto-detection by magic, structured errors for torn and foreign files. *)
let snap_fixture () =
  Generators.erdos_renyi (Gf_util.Rng.create 21) ~n:120 ~m:900 |> fun g ->
  Graph.relabel g (Gf_util.Rng.create 22) ~num_vlabels:3 ~num_elabels:2

let with_snapshot g f =
  let path = Filename.temp_file "gf_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Graph_io.save_snapshot g path;
      f path)

let test_snapshot_roundtrip () =
  let g = snap_fixture () in
  with_snapshot g (fun path ->
      let g2 = Graph_io.load_snapshot path in
      check_int "n" (Graph.num_vertices g) (Graph.num_vertices g2);
      check_int "m" (Graph.num_edges g) (Graph.num_edges g2);
      Alcotest.(check (list (triple int int int)))
        "edges identical"
        (Array.to_list (Graph.edge_array g))
        (Array.to_list (Graph.edge_array g2));
      for v = 0 to Graph.num_vertices g - 1 do
        check_int "vlabel" (Graph.vlabel g v) (Graph.vlabel g2 v)
      done;
      check_bool "tagged mapped" true (Graph.origin g2 = Graph.Mapped path);
      let r = Graph.residency g2 in
      check_bool "mapped residency" true r.Graph.mapped;
      check_bool "off-heap bytes positive" true (r.Graph.offheap_bytes > 0);
      check_int "narrow ids (n < 2^31)" 4 r.Graph.nbr_width;
      (* auto-detection: the generic loader must take the snapshot path *)
      match Graph_io.load_result path with
      | Ok g3 -> check_int "autodetected" (Graph.num_edges g) (Graph.num_edges g3)
      | Error e -> Alcotest.fail (Graph_io.load_error_to_string e))

let test_snapshot_torn_detection () =
  let g = snap_fixture () in
  with_snapshot g (fun path ->
      let sz = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (sz - 3);
      Unix.close fd;
      match Graph_io.load_snapshot_result path with
      | Error { kind = Graph_io.Torn _; _ } -> ()
      | Ok _ -> Alcotest.fail "torn snapshot loaded"
      | Error e -> Alcotest.fail ("wrong error: " ^ Graph_io.load_error_to_string e))

let test_snapshot_bad_version () =
  let g = snap_fixture () in
  with_snapshot g (fun path ->
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd 8 Unix.SEEK_SET);
      ignore (Unix.write_substring fd "\042" 0 1);
      Unix.close fd;
      match Graph_io.load_snapshot_result path with
      | Error { kind = Graph_io.Bad_version 42; _ } -> ()
      | Ok _ -> Alcotest.fail "bad version loaded"
      | Error e -> Alcotest.fail ("wrong error: " ^ Graph_io.load_error_to_string e))

let test_snapshot_queries_agree () =
  let g = snap_fixture () in
  with_snapshot g (fun path ->
      let gm = Graph_io.load_snapshot path in
      (* neighbour slices over mapped storage behave identically *)
      for v = 0 to Graph.num_vertices g - 1 do
        for el = 0 to 1 do
          for nl = 0 to 2 do
            let a, alo, ahi = Graph.neighbours g Graph.Fwd v ~elabel:el ~nlabel:nl in
            let b, blo, bhi = Graph.neighbours gm Graph.Fwd v ~elabel:el ~nlabel:nl in
            Alcotest.(check (array int))
              "slice" (Gf_util.Buf.sub_array a alo ahi)
              (Gf_util.Buf.sub_array b blo bhi)
          done
        done
      done)

(* Property: every partition slice is strictly sorted, and fwd/bwd agree. *)
let prop_partitions_sorted =
  let gen = QCheck2.Gen.(pair (int_range 5 40) (int_bound 200)) in
  QCheck2.Test.make ~name:"adjacency partitions sorted; fwd = bwd transposed" ~count:60 gen
    (fun (n, m) ->
      let rng = Gf_util.Rng.create (n + (m * 1000)) in
      let edges =
        Array.init m (fun _ ->
            (Gf_util.Rng.int rng n, Gf_util.Rng.int rng n, Gf_util.Rng.int rng 2))
      in
      let vlabel = Array.init n (fun _ -> Gf_util.Rng.int rng 2) in
      let g = Graph.build ~num_vlabels:2 ~num_elabels:2 ~vlabel ~edges in
      let ok = ref true in
      for v = 0 to n - 1 do
        for el = 0 to 1 do
          for nl = 0 to 1 do
            List.iter
              (fun dir ->
                let arr, lo, hi = Graph.neighbours g dir v ~elabel:el ~nlabel:nl in
                if not (Gf_util.Sorted.is_sorted_strict arr lo hi) then ok := false)
              [ Graph.Fwd; Graph.Bwd ]
          done
        done
      done;
      (* Transposition check: u in bwd(v) iff edge u->v exists. *)
      Array.iter
        (fun (u, v, el) ->
          if u <> v then begin
            let arr, lo, hi = Graph.neighbours g Graph.Bwd v ~elabel:el ~nlabel:vlabel.(u) in
            if not (Gf_util.Sorted.member arr lo hi u) then ok := false
          end)
        edges;
      !ok)

(* ---------- hub bitmap rows ---------- *)

let rows_graphs () =
  let rng = Gf_util.Rng.create 31 in
  [
    ("fixture", fixture ());
    ( "skewed labeled",
      Graph.relabel
        (Generators.holme_kim rng ~n:600 ~m_per:6 ~p_triad:0.5 ~recip:0.3)
        rng ~num_vlabels:3 ~num_elabels:2 );
    ("google", Generators.dataset ~scale:0.05 Generators.Google);
  ]

let bit (bits : Gf_util.Sorted.bits) row x =
  Int64.logand
    (Int64.shift_right_logical (Bigarray.Array1.get bits (row + (x lsr 6))) (x land 63))
    1L
  = 1L

let whole_list g dir v el =
  let arr, lo, hi = Graph.neighbours_any_nlabel g dir v ~elabel:el in
  Gf_util.Buf.sub_array arr lo hi

let all_lists g f =
  List.iter
    (fun dir ->
      for v = 0 to Graph.num_vertices g - 1 do
        for el = 0 to Graph.num_elabels g - 1 do
          f dir v el
        done
      done)
    [ Graph.Fwd; Graph.Bwd ]

(* The rows stay within a quarter of the adjacency bytes, go to the
   longest lists of at least 16 first, and each row holds exactly its
   whole list. *)
let test_rows_budget () =
  List.iter
    (fun (name, g) ->
      let r = Graph.residency g in
      let adjacency = 2 * Graph.num_edges g * r.Graph.nbr_width in
      check_bool
        (Printf.sprintf "%s: %d row bytes <= a quarter of %d" name r.Graph.row_bytes adjacency)
        true
        (4 * r.Graph.row_bytes <= adjacency);
      if name <> "fixture" then check_bool (name ^ ": some rows") true (r.Graph.row_bytes > 0);
      let bits = Graph.bitmap_words g in
      let n = Graph.num_vertices g in
      let min_rowed = ref max_int and max_unrowed = ref 0 and rows = ref 0 in
      all_lists g (fun dir v el ->
          let list = whole_list g dir v el in
          let len = Array.length list in
          let row = Graph.bitmap_row g dir v ~elabel:el in
          if row < 0 then max_unrowed := max !max_unrowed len
          else begin
            incr rows;
            min_rowed := min !min_rowed len;
            let members = ref 0 in
            for x = 0 to n - 1 do
              if bit bits row x then incr members
            done;
            check_int (name ^ ": row size") len !members;
            check_bool (name ^ ": row holds its list") true
              (Array.for_all (bit bits row) list)
          end);
      check_int (name ^ ": row bytes") r.Graph.row_bytes (!rows * ((n + 63) / 64) * 8);
      if !rows > 0 then begin
        check_bool (name ^ ": no row below 16") true (!min_rowed >= 16);
        check_bool (name ^ ": longest first") true
          (!max_unrowed < 16 || !max_unrowed <= !min_rowed)
      end)
    (rows_graphs ())

(* Rows are derived state: a graph reassembled from its raw parts, or
   mapped from a snapshot, derives the same rows as the built one. *)
let test_rows_build_equals_of_raw () =
  List.iter
    (fun (name, g) ->
      let same what g2 =
        all_lists g (fun dir v el ->
            if Graph.bitmap_row g dir v ~elabel:el <> Graph.bitmap_row g2 dir v ~elabel:el then
              Alcotest.failf "%s %s: row of (%d, %d) differs" name what v el);
        let b = Graph.bitmap_words g and b2 = Graph.bitmap_words g2 in
        check_int (name ^ " " ^ what ^ ": words") (Bigarray.Array1.dim b) (Bigarray.Array1.dim b2);
        for i = 0 to Bigarray.Array1.dim b - 1 do
          if Bigarray.Array1.get b i <> Bigarray.Array1.get b2 i then
            Alcotest.failf "%s %s: word %d differs" name what i
        done
      in
      (match Graph.of_raw (Graph.to_raw g) with
      | Ok g2 -> same "of_raw" g2
      | Error e -> Alcotest.fail e);
      with_snapshot g (fun path -> same "mapped" (Graph_io.load_snapshot path)))
    (rows_graphs ())

let suite =
  let q t = QCheck_alcotest.to_alcotest t in
  [
    ( "graph.core",
      [
        Alcotest.test_case "build counts" `Quick test_build_counts;
        Alcotest.test_case "dedup/self-loops" `Quick test_build_dedup_and_self_loops;
        Alcotest.test_case "partitions" `Quick test_neighbours_partitions;
        Alcotest.test_case "degrees" `Quick test_degree_and_partition_size;
        Alcotest.test_case "has_edge" `Quick test_has_edge;
        Alcotest.test_case "vertices_with_label" `Quick test_vertices_with_label;
        Alcotest.test_case "iter_edges" `Quick test_iter_edges;
        Alcotest.test_case "iter_edges ranges" `Quick test_iter_edges_range_partitions_work;
        Alcotest.test_case "sample_edge" `Quick test_sample_edge;
        Alcotest.test_case "sample_edge uniform" `Quick test_sample_edge_uniform;
        Alcotest.test_case "edge_array roundtrip" `Quick test_edge_array_roundtrip;
        Alcotest.test_case "relabel" `Quick test_relabel;
        q prop_partitions_sorted;
      ] );
    ( "graph.generators",
      [
        Alcotest.test_case "erdos-renyi" `Quick test_erdos_renyi;
        Alcotest.test_case "BA skew" `Slow test_barabasi_albert_skew;
        Alcotest.test_case "holme-kim clustering" `Slow test_holme_kim_clustering;
        Alcotest.test_case "datasets build" `Slow test_datasets_build;
        Alcotest.test_case "dataset names" `Quick test_dataset_names;
      ] );
    ( "graph.io",
      [
        Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
        Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "snapshot torn detection" `Quick test_snapshot_torn_detection;
        Alcotest.test_case "snapshot bad version" `Quick test_snapshot_bad_version;
        Alcotest.test_case "snapshot queries agree" `Quick test_snapshot_queries_agree;
      ] );
    ( "graph.rows",
      [
        Alcotest.test_case "within a quarter of adjacency" `Quick test_rows_budget;
        Alcotest.test_case "build = of_raw" `Quick test_rows_build_equals_of_raw;
      ] );
  ]
