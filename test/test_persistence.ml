open Gf_query
module Catalog = Gf_catalog.Catalog
module Generators = Gf_graph.Generators
module Graph = Gf_graph.Graph
module Graph_io = Gf_graph.Graph_io
module Rng = Gf_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let read_all p = In_channel.with_open_text p In_channel.input_all
let write_file p s = Out_channel.with_open_text p (fun oc -> output_string oc s)
let graph () = Generators.holme_kim (Rng.create 95) ~n:200 ~m_per:4 ~p_triad:0.5 ~recip:0.3

let test_catalog_roundtrip () =
  let g = graph () in
  let cat = Catalog.create ~h:3 ~z:200 g in
  (* Materialize some entries. *)
  ignore (Catalog.entry cat Patterns.asymmetric_triangle ~new_vertex:2);
  ignore (Catalog.entry cat Patterns.diamond_x ~new_vertex:3);
  ignore (Catalog.entry cat (Patterns.cycle 3) ~new_vertex:2);
  let n = Catalog.num_entries cat in
  check_bool "entries materialized" true (n >= 3);
  let path = Filename.temp_file "gf_cat" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Catalog.save cat path;
      let cat2 = Catalog.load g path in
      check_int "same entry count" n (Catalog.num_entries cat2);
      check_int "same h" (Catalog.h cat) (Catalog.h cat2);
      check_int "same z" (Catalog.z cat) (Catalog.z cat2);
      (* Loaded entries must be identical (no resampling). *)
      let e1 = Option.get (Catalog.entry cat Patterns.asymmetric_triangle ~new_vertex:2) in
      let e2 = Option.get (Catalog.entry cat2 Patterns.asymmetric_triangle ~new_vertex:2) in
      check_bool "identical mu" true (e1.Catalog.mu = e2.Catalog.mu);
      check_int "identical samples" e1.Catalog.samples e2.Catalog.samples;
      check_bool "identical sizes" true (e1.Catalog.sizes = e2.Catalog.sizes))

(* v3 keeps each entry's work statistics. *)
let test_catalog_v3_roundtrip () =
  let g = graph () in
  let cat = Catalog.create ~h:3 ~z:200 g in
  let patterns =
    [ (Patterns.asymmetric_triangle, 2); (Patterns.diamond_x, 3); (Patterns.clique 4 ~cyclic:false, 3) ]
  in
  let entries = List.map (fun (q, v) -> Option.get (Catalog.entry cat q ~new_vertex:v)) patterns in
  List.iter
    (fun e -> check_int "a work pair per list" (List.length e.Catalog.sizes) (Array.length e.Catalog.kernel))
    entries;
  let path = Filename.temp_file "gf_cat" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Catalog.save cat path;
      check_bool "v3 header" true
        (String.starts_with ~prefix:"graphflow-catalog v3\n" (read_all path));
      let cat2 = Catalog.load g path in
      List.iter2
        (fun (q, v) e1 ->
          let e2 = Option.get (Catalog.entry cat2 q ~new_vertex:v) in
          check_bool "identical entry" true (e1 = e2))
        patterns entries;
      check_int "nothing sampled after load" (Catalog.num_entries cat) (Catalog.num_entries cat2))

(* A v2 file's entries load without work statistics and are sampled again
   on first use, to what a fresh catalogue with the same parameters
   samples. *)
let test_catalog_v2_resampled () =
  let g = graph () in
  let cat = Catalog.create ~h:3 ~z:200 g in
  let e1 = Option.get (Catalog.entry cat Patterns.diamond_x ~new_vertex:3) in
  let path = Filename.temp_file "gf_cat" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Catalog.save cat path;
      (* The same file as v2 wrote it: no work fields. *)
      let v2 =
        String.split_on_char '\n' (read_all path)
        |> List.map (fun line ->
               match String.split_on_char ' ' line with
               | "graphflow-catalog" :: _ -> "graphflow-catalog v2"
               | "entry" :: _ as f -> String.concat " " (List.filteri (fun i _ -> i < 6) f)
               | "size" :: _ as f -> String.concat " " (List.filteri (fun i _ -> i < 5) f)
               | _ -> line)
        |> String.concat "\n"
      in
      write_file path v2;
      let cat2 = Catalog.load g path in
      check_int "v2 entries kept" (Catalog.num_entries cat) (Catalog.num_entries cat2);
      let e2 = Option.get (Catalog.entry cat2 Patterns.diamond_x ~new_vertex:3) in
      check_bool "re-sampled with work" true (Array.length e2.Catalog.kernel > 0);
      check_bool "re-sampled = fresh" true (e1 = e2);
      check_int "replaced, not added" (Catalog.num_entries cat) (Catalog.num_entries cat2))

let test_catalog_load_then_extend () =
  (* A loaded catalogue still materializes new entries lazily. *)
  let g = graph () in
  let cat = Catalog.create ~h:3 ~z:200 g in
  ignore (Catalog.entry cat Patterns.asymmetric_triangle ~new_vertex:2);
  let path = Filename.temp_file "gf_cat" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Catalog.save cat path;
      let cat2 = Catalog.load g path in
      let before = Catalog.num_entries cat2 in
      ignore (Catalog.entry cat2 Patterns.tailed_triangle ~new_vertex:3);
      check_bool "lazy growth after load" true (Catalog.num_entries cat2 > before))

let test_catalog_load_errors () =
  let g = graph () in
  let fails content =
    let path = Filename.temp_file "gf_cat" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        try
          ignore (Catalog.load g path);
          false
        with Failure _ -> true)
  in
  check_bool "empty" true (fails "");
  check_bool "bad header" true (fails "nope\n");
  check_bool "bad params" true (fails "graphflow-catalog v1\nxyz\n");
  check_bool "orphan size" true (fails "graphflow-catalog v1\n3 100\nsize 0 f 0 1.0\n")

(* --- crash-safe writes and structured catalog errors ------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "gf_persist" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let tmp_siblings dir =
  Sys.readdir dir |> Array.to_list |> List.filter (fun n -> contains n ".tmp.")

let test_atomic_file_crash () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "data.txt" in
      Gf_util.Atomic_file.write path (fun oc -> output_string oc "version-1\n");
      check_bool "written" true (read_all path = "version-1\n");
      (* The writer dies mid-write: the previous contents survive, the temp
         is removed, and the exception propagates. *)
      let raised =
        try
          Gf_util.Atomic_file.write path (fun oc ->
              output_string oc "version-2 partial";
              failwith "simulated crash");
          false
        with Failure _ -> true
      in
      check_bool "exception propagates" true raised;
      check_bool "previous contents intact" true (read_all path = "version-1\n");
      check_int "no temp sibling left" 0 (List.length (tmp_siblings dir));
      (* A stale temp from a kill -9'd process never shadows the target: the
         next successful write still replaces the target atomically. *)
      write_file (path ^ ".tmp.999999") "torn half-writ";
      Gf_util.Atomic_file.write path (fun oc -> output_string oc "version-3\n");
      check_bool "stale tmp ignored by readers of the target" true
        (read_all path = "version-3\n"))

let test_saves_leave_no_tmp () =
  let g = graph () in
  with_temp_dir (fun dir ->
      let cpath = Filename.concat dir "cat.txt" in
      let gpath = Filename.concat dir "graph.txt" in
      let cat = Catalog.create ~h:3 ~z:200 g in
      ignore (Catalog.entry cat Patterns.asymmetric_triangle ~new_vertex:2);
      Catalog.save cat cpath;
      Graph_io.save g gpath;
      check_int "no temp siblings after save" 0 (List.length (tmp_siblings dir));
      check_bool "catalog loads back" true (Catalog.num_entries (Catalog.load g cpath) >= 1);
      check_bool "graph loads back" true (Result.is_ok (Graph_io.load_result gpath)))

let test_catalog_save_torn () =
  (* kill -9 mid-save: the in-progress temp is torn and never renamed; the
     published file is byte-identical and still loads. The torn bytes
     themselves are detected as corrupt, never silently accepted. *)
  let g = graph () in
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "cat.txt" in
      let cat = Catalog.create ~h:3 ~z:200 g in
      ignore (Catalog.entry cat Patterns.asymmetric_triangle ~new_vertex:2);
      ignore (Catalog.entry cat Patterns.diamond_x ~new_vertex:3);
      Catalog.save cat path;
      let v1_bytes = read_all path in
      let n = Catalog.num_entries (Catalog.load g path) in
      let stale = Printf.sprintf "%s.tmp.%d" path 999999 in
      write_file stale (String.sub v1_bytes 0 (String.length v1_bytes * 2 / 3));
      check_bool "published file untouched" true (read_all path = v1_bytes);
      check_int "and still loads" n (Catalog.num_entries (Catalog.load g path));
      (match Catalog.load_result g stale with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "torn temp file must not load");
      (* The next save simply replaces the target. *)
      ignore (Catalog.entry cat (Patterns.cycle 3) ~new_vertex:2);
      Catalog.save cat path;
      check_bool "resave replaces target" true
        (Catalog.num_entries (Catalog.load g path) >= n))

let test_catalog_structured_errors () =
  let g = graph () in
  let error_of content =
    let path = Filename.temp_file "gf_cat" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        write_file path content;
        match Catalog.load_result g path with
        | Ok _ -> Alcotest.fail ("accepted corrupt input: " ^ String.escaped content)
        | Error e -> e)
  in
  (match Catalog.load_result g "/nonexistent/gf_cat.txt" with
  | Error { kind = Catalog.Unreadable _; _ } -> ()
  | _ -> Alcotest.fail "missing file must be Unreadable");
  (match (error_of "nope\n").Catalog.kind with
  | Catalog.Bad_header "nope" -> ()
  | _ -> Alcotest.fail "expected Bad_header");
  (match (error_of "graphflow-catalog v1\nxyz\n").Catalog.kind with
  | Catalog.Bad_params "xyz" -> ()
  | _ -> Alcotest.fail "wrong parameter arity must be Bad_params");
  (match (error_of "graphflow-catalog v1\n3 abc\n").Catalog.kind with
  | Catalog.Bad_token "abc" -> ()
  | _ -> Alcotest.fail "non-integer parameter must be Bad_token");
  (let e = error_of "graphflow-catalog v1\n3 100\nsize 0 f 0 1.0\n" in
   (match e.Catalog.kind with
   | Catalog.Orphan_size -> ()
   | _ -> Alcotest.fail "size before any entry must be Orphan_size");
   check_int "line points at the offender" 3 e.Catalog.line);
  (match
     (error_of
        "graphflow-catalog v1\n3 100\nentry ab 1.0 2.0 3 2\nsize 0 f 0 1.0\nend\n")
       .Catalog.kind
   with
  | Catalog.Size_count_mismatch { expected = 2; got = 1 } -> ()
  | _ -> Alcotest.fail "short size section must be Size_count_mismatch");
  (match
     (error_of "graphflow-catalog v1\n3 100\nentry ab 1.0 2.0 3 1\nsize 0 x 0 1.0\n")
       .Catalog.kind
   with
  | Catalog.Bad_token "x" -> ()
  | _ -> Alcotest.fail "bad direction must be Bad_token");
  (* v2 carries the entry count and a trailing end marker: both a missing
     entry and a missing marker mean the file is torn. *)
  (match
     (error_of "graphflow-catalog v2\n3 100 2\nentry ab 1.0 2.0 3 0\nend\n").Catalog.kind
   with
  | Catalog.Truncated { expected_entries = 2; got = 1 } -> ()
  | _ -> Alcotest.fail "missing entry must be Truncated");
  (match
     (error_of "graphflow-catalog v2\n3 100 1\nentry ab 1.0 2.0 3 0\n").Catalog.kind
   with
  | Catalog.Truncated { expected_entries = 1; got = 1 } -> ()
  | _ -> Alcotest.fail "missing end marker must be Truncated");
  (* A well-formed v1 file (no count, no marker) still loads. *)
  let v1 = "graphflow-catalog v1\n3 100\nentry ab 1.0 2.0 3 1\nsize 0 f 0 1.0\n" in
  let path = Filename.temp_file "gf_cat" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path v1;
      match Catalog.load_result g path with
      | Ok t -> check_int "v1 accepted" 1 (Catalog.num_entries t)
      | Error e -> Alcotest.fail (Catalog.load_error_to_string e))

(* The output count of an enumerating run. *)
let enumerated g plan = (fst (Gf_exec.Exec.run_gov g plan)).Gf_exec.Counters.output

let test_count_only_matches_run_gov () =
  let g = graph () in
  let open Gf_plan in
  let open Gf_exec in
  List.iter
    (fun i ->
      let q = Patterns.q i in
      List.iter
        (fun order ->
          let plan = Plan.wco q order in
          check_int
            (Printf.sprintf "Q%d count-only root" i)
            (enumerated g plan) (Exec.count g plan))
        (List.filteri (fun j _ -> j < 3) (Query.connected_orders q)))
    [ 1; 2; 3; 4; 5; 11 ]

let test_count_non_extend_root () =
  let g = graph () in
  let open Gf_plan in
  let open Gf_exec in
  let q = Patterns.cycle 4 in
  let plan = Plan.hash_join q (Plan.wco q [| 0; 1; 2 |]) (Plan.wco q [| 2; 3; 0 |]) in
  check_int "join root enumerates" (enumerated g plan) (Exec.count g plan)

let test_graph_roundtrip () =
  let g =
    Graph.relabel (graph ()) (Rng.create 3) ~num_vlabels:3 ~num_elabels:2
  in
  let path = Filename.temp_file "gf_graph" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save g path;
      match Graph_io.load_result path with
      | Error e -> Alcotest.fail (Graph_io.load_error_to_string e)
      | Ok g2 ->
          check_int "vertices" (Graph.num_vertices g) (Graph.num_vertices g2);
          check_int "edges" (Graph.num_edges g) (Graph.num_edges g2);
          check_int "vlabels" (Graph.num_vlabels g) (Graph.num_vlabels g2);
          check_int "elabels" (Graph.num_elabels g) (Graph.num_elabels g2);
          for v = 0 to Graph.num_vertices g - 1 do
            check_int "vertex label" (Graph.vlabel g v) (Graph.vlabel g2 v)
          done;
          let sorted g = List.sort compare (Array.to_list (Graph.edge_array g)) in
          check_bool "edge set" true (sorted g = sorted g2))

let load_string content =
  let path = Filename.temp_file "gf_graph" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      Graph_io.load_result path)

let test_graph_load_errors () =
  let kind_of content =
    match load_string content with
    | Ok _ -> Alcotest.fail ("accepted corrupt input: " ^ String.escaped content)
    | Error e -> e.Graph_io.kind
  in
  (match Graph_io.load_result "/nonexistent/gf_graph.txt" with
  | Error { kind = Graph_io.Unreadable _; _ } -> ()
  | _ -> Alcotest.fail "missing file must be Unreadable");
  (match kind_of "nope\n" with
  | Graph_io.Bad_header h -> check_bool "header text" true (h = "nope")
  | _ -> Alcotest.fail "expected Bad_header");
  (match kind_of "graphflow v1\n" with
  | Graph_io.Truncated _ -> ()
  | _ -> Alcotest.fail "EOF before size line must be Truncated");
  (match kind_of "graphflow v1\n3 1 1 1\ne 0 x 0\n" with
  | Graph_io.Bad_token "x" -> ()
  | _ -> Alcotest.fail "non-integer token must be Bad_token");
  (match kind_of "graphflow v1\n3 1 1 1\nv 5 1\ne 0 1 0\n" with
  | Graph_io.Bad_vertex 5 -> ()
  | _ -> Alcotest.fail "out-of-range vertex id must be Bad_vertex");
  (match kind_of "graphflow v1\n3 1 1 1\ne 0 7 0\n" with
  | Graph_io.Dangling_edge (0, 7) -> ()
  | _ -> Alcotest.fail "edge endpoint past n must be Dangling_edge");
  (match kind_of "graphflow v1\n3 2 1 1\ne 0 1 0\n" with
  | Graph_io.Edge_count_mismatch { expected = 2; got = 1 } -> ()
  | _ -> Alcotest.fail "short edge section must be Edge_count_mismatch");
  (* Line numbers point at the offending line (1-based). *)
  (match load_string "graphflow v1\n3 1 1 1\nv 5 1\n" with
  | Error e -> check_int "error line" 3 e.Graph_io.line
  | Ok _ -> Alcotest.fail "expected an error");
  (* The raising wrapper keeps the original Failure contract. *)
  check_bool "load raises Failure" true
    (try
       ignore (Graph_io.load "/nonexistent/gf_graph.txt");
       false
     with Failure _ -> true)

let suite =
  [
    ( "graph_io",
      [
        Alcotest.test_case "roundtrip" `Quick test_graph_roundtrip;
        Alcotest.test_case "corrupt inputs" `Quick test_graph_load_errors;
      ] );
    ( "persistence",
      [
        Alcotest.test_case "catalog roundtrip" `Quick test_catalog_roundtrip;
        Alcotest.test_case "catalog v3 roundtrip keeps work" `Quick test_catalog_v3_roundtrip;
        Alcotest.test_case "catalog v2 entries re-sampled" `Quick test_catalog_v2_resampled;
        Alcotest.test_case "load then extend" `Quick test_catalog_load_then_extend;
        Alcotest.test_case "load errors" `Quick test_catalog_load_errors;
        Alcotest.test_case "atomic write crash" `Quick test_atomic_file_crash;
        Alcotest.test_case "saves leave no temp" `Quick test_saves_leave_no_tmp;
        Alcotest.test_case "torn save detected" `Quick test_catalog_save_torn;
        Alcotest.test_case "structured load errors" `Quick test_catalog_structured_errors;
      ] );
    ( "exec.count",
      [
        Alcotest.test_case "count-only matches run_gov" `Quick test_count_only_matches_run_gov;
        Alcotest.test_case "non-extend root" `Quick test_count_non_extend_root;
      ] );
  ]
