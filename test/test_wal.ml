(* The durability stack: CRC32, WAL framing/rotation/torn-tail repair,
   the delta overlay, checksummed v2 snapshots, store recovery, and the
   service mutation path. Crash-torture (fork + kill -9) lives in the
   separate single-threaded test_torture executable. *)

module Gf = Graphflow
module Wal = Gf_wal.Wal
module Store = Gf_wal.Store
module Delta = Gf.Delta
module Service = Gf_server.Service

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_temp_dir f =
  let dir = Filename.temp_file "gf_wal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let small_graph () =
  Gf.Graph.build ~num_vlabels:2 ~num_elabels:2
    ~vlabel:[| 0; 1; 0; 1; 0 |]
    ~edges:[| (0, 1, 0); (0, 2, 1); (1, 2, 0); (2, 3, 0); (3, 4, 1) |]

(* --- crc32 ------------------------------------------------------------ *)

let test_crc32_vectors () =
  (* The standard check value for CRC-32 (IEEE 802.3, reflected). *)
  check_bool "check value" true (Gf.Crc32.string "123456789" = 0xCBF43926l);
  check_bool "empty" true (Gf.Crc32.string "" = 0l);
  (* Incremental folding must equal one-shot. *)
  let s = "the quick brown fox jumps over the lazy dog" in
  let c = ref Gf.Crc32.init in
  String.iter (fun ch -> c := Gf.Crc32.update_string !c (String.make 1 ch)) s;
  check_bool "incremental = one-shot" true (Gf.Crc32.finish !c = Gf.Crc32.string s);
  (* Sensitivity: any single flipped bit changes the sum. *)
  let b = Bytes.of_string s in
  Bytes.set b 7 (Char.chr (Char.code (Bytes.get b 7) lxor 1));
  check_bool "bit flip detected" true (Gf.Crc32.string (Bytes.to_string b) <> Gf.Crc32.string s)

(* --- wal framing, rotation, recovery ---------------------------------- *)

let ops_equal (a : Wal.op) (b : Wal.op) = a = b

let collect_replay ?from_lsn dir =
  let acc = ref [] in
  match Wal.replay ?from_lsn dir (fun ~lsn op -> acc := (lsn, op) :: !acc) with
  | Ok last -> Ok (last, List.rev !acc)
  | Error e -> Error e

let test_wal_roundtrip_rotation () =
  with_temp_dir (fun dir ->
      (* Tiny segments force several rotations across 60 records. *)
      let w = Result.get_ok (Wal.open_log ~segment_bytes:256 dir) in
      let expect = ref [] in
      for i = 1 to 60 do
        let op =
          match i mod 4 with
          | 0 -> Wal.Add_edge { u = i; v = i + 1; elabel = 0 }
          | 1 -> Wal.Del_edge { u = i; v = i + 2; elabel = 1 }
          | 2 -> Wal.Add_vertex { label = i mod 3 }
          | _ -> Wal.Del_vertex { v = i }
        in
        let lsn = Result.get_ok (Wal.append w op) in
        check_int "dense lsn" i lsn;
        expect := (i, op) :: !expect
      done;
      check_int "nothing durable before sync" 0 (Wal.durable_lsn w);
      check_int "sync covers all" 60 (Result.get_ok (Wal.sync w));
      check_int "durable after sync" 60 (Wal.durable_lsn w);
      Wal.close w;
      check_bool "rotated into several segments" true
        (List.length (Wal.segment_files dir) > 2);
      let last, got = Result.get_ok (collect_replay dir) in
      check_int "replay reaches last lsn" 60 last;
      check_int "every record replayed" 60 (List.length got);
      List.iter2
        (fun (l1, o1) (l2, o2) ->
          check_int "lsn order" l1 l2;
          check_bool "op roundtrip" true (ops_equal o1 o2))
        (List.rev !expect) got;
      (* from_lsn replays a strict suffix. *)
      let _, suffix = Result.get_ok (collect_replay ~from_lsn:50 dir) in
      check_int "suffix length" 10 (List.length suffix);
      check_int "suffix start" 51 (fst (List.hd suffix)))

let test_wal_torn_tail_truncated () =
  with_temp_dir (fun dir ->
      let w = Result.get_ok (Wal.open_log dir) in
      for i = 1 to 10 do
        ignore (Result.get_ok (Wal.append w (Wal.Add_edge { u = i; v = i + 1; elabel = 0 })))
      done;
      ignore (Result.get_ok (Wal.sync w));
      Wal.close w;
      (* Tear the tail: chop the final record mid-frame, as a crash during
         append would. *)
      let seg =
        Filename.concat dir (List.nth (Wal.segment_files dir) (List.length (Wal.segment_files dir) - 1))
      in
      let size = (Unix.stat seg).Unix.st_size in
      let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 5);
      Unix.close fd;
      let last, got = Result.get_ok (collect_replay dir) in
      check_int "torn record dropped" 9 last;
      check_int "nine survive" 9 (List.length got);
      (* The repair rewrote the file: a second replay sees a clean log. *)
      let last2, _ = Result.get_ok (collect_replay dir) in
      check_int "idempotent repair" 9 last2;
      (* And the log re-opens for appending with the next LSN. *)
      let w2 = Result.get_ok (Wal.open_log dir) in
      check_int "next lsn after repair" 10 (Result.get_ok (Wal.append w2 (Wal.Add_vertex { label = 0 })));
      ignore (Result.get_ok (Wal.sync w2));
      Wal.close w2)

let test_wal_corruption_mid_log_refused () =
  with_temp_dir (fun dir ->
      (* Two segments; corrupt the middle of the FIRST one. Truncation is
         only legal on the final tail — this must refuse. *)
      let w = Result.get_ok (Wal.open_log ~segment_bytes:128 dir) in
      for i = 1 to 30 do
        ignore (Result.get_ok (Wal.append w (Wal.Add_edge { u = i; v = i + 1; elabel = 0 })))
      done;
      ignore (Result.get_ok (Wal.sync w));
      Wal.close w;
      let segs = Wal.segment_files dir in
      check_bool "multiple segments" true (List.length segs > 1);
      let first = Filename.concat dir (List.hd segs) in
      let fd = Unix.openfile first [ Unix.O_WRONLY ] 0 in
      let _ = Unix.lseek fd 40 Unix.SEEK_SET in
      ignore (Unix.write fd (Bytes.make 4 '\xff') 0 4);
      Unix.close fd;
      match collect_replay dir with
      | Error (Wal.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "corrupt interior record must refuse replay"
      | Error e -> Alcotest.fail ("wrong error: " ^ Wal.error_to_string e))

let test_wal_missing_prefix_refused () =
  with_temp_dir (fun dir ->
      let w = Result.get_ok (Wal.open_log ~segment_bytes:128 dir) in
      for i = 1 to 30 do
        ignore (Result.get_ok (Wal.append w (Wal.Add_edge { u = i; v = i + 1; elabel = 0 })))
      done;
      ignore (Result.get_ok (Wal.sync w));
      Wal.close w;
      Sys.remove (Filename.concat dir (List.hd (Wal.segment_files dir)));
      match collect_replay dir with
      | Error (Wal.Missing_prefix _) -> ()
      | Ok _ -> Alcotest.fail "replay from 0 with a deleted leading segment must refuse"
      | Error e -> Alcotest.fail ("wrong error: " ^ Wal.error_to_string e))

let test_wal_drop_segments () =
  with_temp_dir (fun dir ->
      let w = Result.get_ok (Wal.open_log ~segment_bytes:128 dir) in
      for i = 1 to 30 do
        ignore (Result.get_ok (Wal.append w (Wal.Add_edge { u = i; v = i + 1; elabel = 0 })))
      done;
      ignore (Result.get_ok (Wal.sync w));
      ignore (Result.get_ok (Wal.rotate w));
      let before = List.length (Wal.segment_files dir) in
      let dropped = Result.get_ok (Wal.drop_segments_below w 31) in
      check_bool "dropped covered segments" true (dropped > 0);
      check_int "files removed" (before - dropped) (List.length (Wal.segment_files dir));
      (* The suffix past a from_lsn matching a surviving boundary replays. *)
      let _, got = Result.get_ok (collect_replay ~from_lsn:30 dir) in
      check_int "nothing past 30 yet" 0 (List.length got);
      ignore (Result.get_ok (Wal.append w (Wal.Add_vertex { label = 1 })));
      ignore (Result.get_ok (Wal.sync w));
      Wal.close w;
      let last, got = Result.get_ok (collect_replay ~from_lsn:30 dir) in
      check_int "new record replayable" 31 last;
      check_int "one new record" 1 (List.length got))

(* --- delta overlay ---------------------------------------------------- *)

let test_delta_semantics () =
  let d = Delta.create (small_graph ()) in
  check_int "starts at version 0" 0 (Delta.version d);
  check_bool "base edge live" true (Delta.mem_edge d 0 1 ~elabel:0);
  (* Duplicate insert is a noop but still bumps the version (LSN rule). *)
  check_bool "dup insert noop" true (Delta.add_edge d 0 1 ~elabel:0 = Ok Delta.Noop);
  check_int "noop bumps version" 1 (Delta.version d);
  check_bool "new edge" true (Delta.add_edge d 4 0 ~elabel:1 = Ok Delta.Applied);
  check_bool "overlay read sees it" true (Delta.mem_edge d 4 0 ~elabel:1);
  check_bool "delete base edge" true (Delta.del_edge d 0 1 ~elabel:0 = Ok Delta.Applied);
  check_bool "deleted edge gone" true (not (Delta.mem_edge d 0 1 ~elabel:0));
  check_bool "absent delete noop" true (Delta.del_edge d 0 4 ~elabel:0 = Ok Delta.Noop);
  (* Structural refusals. *)
  check_bool "self loop refused" true (Delta.add_edge d 2 2 ~elabel:0 = Error (Delta.Self_loop 2));
  check_bool "bad vertex refused" true
    (Delta.add_edge d 0 99 ~elabel:0 = Error (Delta.Vertex_out_of_range 99));
  check_bool "bad elabel refused" true
    (Delta.add_edge d 0 3 ~elabel:7 = Error (Delta.Elabel_out_of_range 7));
  (* Vertex append: dense ids. *)
  let id = Result.get_ok (Delta.add_vertex d ~label:1) in
  check_int "new vertex id" 5 id;
  check_int "live vertices" 6 (Delta.live_vertices d);
  check_bool "edge to new vertex" true (Delta.add_edge d 0 5 ~elabel:0 = Ok Delta.Applied);
  (* Tombstone: incident edges die, the id is never reused. *)
  check_bool "del vertex" true (Delta.del_vertex d 2 = Ok Delta.Applied);
  check_bool "incident base edge gone" true (not (Delta.mem_edge d 1 2 ~elabel:0));
  check_bool "tombstoned refuses new edges" true
    (Delta.add_edge d 0 2 ~elabel:0 = Error (Delta.Tombstoned 2));
  check_bool "double delete noop" true (Delta.del_vertex d 2 = Ok Delta.Noop);
  (* Merge publishes a CSR that agrees with the overlay view. *)
  let before = Delta.edge_array d in
  let g2 = Delta.merge d in
  check_int "merge clears pending" 0 (Delta.pending d);
  check_int "merged version catches up" (Delta.version d) (Delta.merged_version d);
  let after = Delta.edge_array d in
  check_bool "merge preserves the edge set" true (before = after);
  check_int "merged CSR edge count" (Array.length after) (Gf.Graph.num_edges g2);
  check_int "merged CSR vertices" 6 (Gf.Graph.num_vertices g2);
  (* Post-merge reads keep working against the new base. *)
  check_bool "post-merge read" true (Delta.mem_edge d 4 0 ~elabel:1)

let test_delta_neighbours_sorted_view () =
  let d = Delta.create (small_graph ()) in
  ignore (Result.get_ok (Delta.add_edge d 0 4 ~elabel:0));
  ignore (Result.get_ok (Delta.add_edge d 0 3 ~elabel:0));
  ignore (Result.get_ok (Delta.add_edge d 0 2 ~elabel:0));
  ignore (Result.get_ok (Delta.del_edge d 0 1 ~elabel:0));
  (* Neighbours of 0 over elabel 0 after the overlay: base {1} minus the
     delete, plus sorted inserts {2,3,4}, partitioned by the neighbour's
     label (vlabel = [|0;1;0;1;0|]). *)
  let ns = Delta.neighbours d 0 ~elabel:0 ~nlabel:0 in
  check_bool "sorted overlay view" true (ns = [| 2; 4 |]);
  let ns1 = Delta.neighbours d 0 ~elabel:0 ~nlabel:1 in
  check_bool "other partition" true (ns1 = [| 3 |])

(* --- snapshot v2 integrity -------------------------------------------- *)

let test_snapshot_v2_roundtrip_and_bitrot () =
  let g = small_graph () in
  let path = Filename.temp_file "gf_wal" ".gfq" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Gf.Graph_io.save_snapshot ~wal_version:42 g path;
      (match Gf.Graph_io.load_snapshot_versioned path with
      | Ok (g2, wal_version) ->
          check_int "wal version carried" 42 wal_version;
          check_int "vertices" (Gf.Graph.num_vertices g) (Gf.Graph.num_vertices g2);
          check_int "edges" (Gf.Graph.num_edges g) (Gf.Graph.num_edges g2)
      | Error e -> Alcotest.fail (Gf.Graph_io.load_error_to_string e));
      (* Bit rot in a section body: the CRC trailer must catch it at load
         time, before the file is ever mapped. *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      let _ = Unix.lseek fd (size / 2) Unix.SEEK_SET in
      ignore (Unix.write fd (Bytes.make 1 '\xa5') 0 1);
      Unix.close fd;
      match Gf.Graph_io.load_snapshot_versioned path with
      | Error { kind = Gf.Graph_io.Checksum _; _ } -> ()
      | Ok _ -> Alcotest.fail "bit rot must be detected"
      | Error e -> Alcotest.fail ("wrong error: " ^ Gf.Graph_io.load_error_to_string e))

let test_snapshot_v1_still_loads () =
  let g = small_graph () in
  let path = Filename.temp_file "gf_wal" ".gfq" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Gf.Graph_io.save_snapshot_v1 g path;
      match Gf.Graph_io.load_snapshot_versioned path with
      | Ok (g2, wal_version) ->
          check_int "v1 has no wal version" 0 wal_version;
          check_int "v1 roundtrip edges" (Gf.Graph.num_edges g) (Gf.Graph.num_edges g2)
      | Error e -> Alcotest.fail (Gf.Graph_io.load_error_to_string e))

(* Every failed load path must close its fd — a recovering store probes
   corrupt snapshot generations in a loop, and each probe leaking one
   descriptor would exhaust the table under repeated crash cycles. *)
let test_snapshot_failed_load_closes_fd () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let g = small_graph () in
  let good = Filename.temp_file "gf_wal" ".gfq" in
  let torn = Filename.temp_file "gf_wal" ".gfq" in
  let rotted = Filename.temp_file "gf_wal" ".gfq" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ good; torn; rotted ])
    (fun () ->
      Gf.Graph_io.save_snapshot g good;
      Gf.Graph_io.save_snapshot g torn;
      let fd = Unix.openfile torn [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd 48;
      Unix.close fd;
      Gf.Graph_io.save_snapshot g rotted;
      let size = (Unix.stat rotted).Unix.st_size in
      let fd = Unix.openfile rotted [ Unix.O_WRONLY ] 0 in
      let _ = Unix.lseek fd (size / 2) Unix.SEEK_SET in
      ignore (Unix.write fd (Bytes.make 1 '\xa5') 0 1);
      Unix.close fd;
      let baseline = open_fds () in
      for _ = 1 to 16 do
        (match Gf.Graph_io.load_snapshot_versioned torn with
        | Ok _ -> Alcotest.fail "torn snapshot must not load"
        | Error _ -> ());
        (match Gf.Graph_io.load_snapshot_versioned rotted with
        | Ok _ -> Alcotest.fail "rotted snapshot must not load"
        | Error _ -> ());
        match Gf.Graph_io.load_snapshot_versioned "/nonexistent/snap.gfq" with
        | Ok _ -> Alcotest.fail "missing snapshot must not load"
        | Error _ -> ()
      done;
      check_int "no fd leaked across failed loads" baseline (open_fds ()))

(* --- store recovery --------------------------------------------------- *)

let store_cfg =
  { Store.segment_bytes = 512; sync_every_append = false; merge_threshold = 8; snapshots_kept = 2 }

let test_store_recovery_roundtrip () =
  with_temp_dir (fun dir ->
      let st = Result.get_ok (Store.open_store ~config:store_cfg ~init:(small_graph ()) dir) in
      for i = 0 to 3 do
        ignore (Result.get_ok (Store.add_edge st i (i + 1) ~elabel:1))
      done;
      let vid = snd (Result.get_ok (Store.add_vertex st ~label:1)) in
      ignore (Result.get_ok (Store.add_edge st 0 vid ~elabel:0));
      ignore (Result.get_ok (Store.sync st));
      let snap_v = Result.get_ok (Store.checkpoint st) in
      check_int "checkpoint at current version" (Store.version st) snap_v;
      (* More mutations after the checkpoint: recovery = snapshot + replay. *)
      ignore (Result.get_ok (Store.del_edge st 0 1 ~elabel:0));
      ignore (Result.get_ok (Store.del_vertex st 3));
      ignore (Result.get_ok (Store.sync st));
      let version = Store.version st in
      let expect_edges =
        let d = Delta.create (Store.merge_now st) in
        Delta.edge_array d
      in
      Store.close st;
      let st2 = Result.get_ok (Store.open_store ~config:store_cfg ~init:(small_graph ()) dir) in
      let r = Store.recovery_info st2 in
      check_bool "seated the snapshot" true (r.Store.snapshot <> None);
      check_int "replayed past snapshot" (version - snap_v) r.Store.replayed;
      check_int "version recovered" version (Store.version st2);
      let recovered =
        let d = Delta.create (Store.merge_now st2) in
        Delta.edge_array d
      in
      check_bool "recovered edges equal" true (expect_edges = recovered);
      Store.close st2)

let test_store_recovery_equals_state () =
  with_temp_dir (fun dir ->
      let st = Result.get_ok (Store.open_store ~config:store_cfg ~init:(small_graph ()) dir) in
      let rng = Gf.Rng.create 99 in
      for _ = 1 to 100 do
        let u = Gf.Rng.int rng (Store.live_vertices st)
        and v = Gf.Rng.int rng (Store.live_vertices st) in
        match Gf.Rng.int rng 10 with
        | 0 -> ignore (Store.add_vertex st ~label:(Gf.Rng.int rng 2))
        | 1 | 2 -> ignore (Store.del_edge st u v ~elabel:(Gf.Rng.int rng 2))
        | _ -> ignore (Store.add_edge st u v ~elabel:(Gf.Rng.int rng 2))
      done;
      ignore (Result.get_ok (Store.sync st));
      let version = Store.version st in
      let g_before = Store.merge_now st in
      let edges_before =
        let d = Delta.create g_before in
        Delta.edge_array d
      in
      Store.close st;
      let st2 = Result.get_ok (Store.open_store ~config:store_cfg ~init:(small_graph ()) dir) in
      check_int "version recovered exactly" version (Store.version st2);
      let edges_after =
        let d = Delta.create (Store.merge_now st2) in
        Delta.edge_array d
      in
      check_bool "recovered graph equals pre-crash graph" true (edges_before = edges_after);
      Store.close st2)

let test_store_refuses_gutted_log () =
  with_temp_dir (fun dir ->
      let st = Result.get_ok (Store.open_store ~config:store_cfg ~init:(small_graph ()) dir) in
      for i = 0 to 3 do
        ignore (Result.get_ok (Store.add_edge st i (i + 1) ~elabel:1))
      done;
      ignore (Result.get_ok (Store.sync st));
      ignore (Result.get_ok (Store.checkpoint st));
      ignore (Result.get_ok (Store.add_edge st 4 0 ~elabel:0));
      ignore (Result.get_ok (Store.sync st));
      Store.close st;
      (* Delete every snapshot: the log's surviving segments now start
         after the replay point (the checkpoint dropped the prefix), so
         opening must refuse rather than serve a wrong graph. *)
      Array.iter
        (fun n ->
          if Filename.check_suffix n ".gfq" then Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      match Store.open_store ~config:store_cfg ~init:(small_graph ()) dir with
      | Error (Store.Wal_error (Wal.Missing_prefix _)) -> ()
      | Ok st ->
          Store.close st;
          Alcotest.fail "ahead-of-snapshot log must refuse to open"
      | Error e -> Alcotest.fail ("wrong error: " ^ Store.open_error_to_string e))

let test_store_falls_back_to_older_snapshot () =
  with_temp_dir (fun dir ->
      let st = Result.get_ok (Store.open_store ~config:store_cfg ~init:(small_graph ()) dir) in
      ignore (Result.get_ok (Store.add_edge st 0 3 ~elabel:0));
      ignore (Result.get_ok (Store.sync st));
      ignore (Result.get_ok (Store.checkpoint st));
      ignore (Result.get_ok (Store.add_edge st 0 4 ~elabel:0));
      ignore (Result.get_ok (Store.sync st));
      ignore (Result.get_ok (Store.checkpoint st));
      let version = Store.version st in
      let edges_before =
        let d = Delta.create (Store.merge_now st) in
        Delta.edge_array d
      in
      Store.close st;
      let snaps =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".gfq")
        |> List.sort compare
      in
      check_int "two generations kept" 2 (List.length snaps);
      (* Rot the NEWEST snapshot; recovery must warn, fall back to the
         older generation, and replay the gap from the log. This only
         works because checkpoint drops segments below the OLDEST retained
         snapshot, not the newest. *)
      let newest = Filename.concat dir (List.nth snaps 1) in
      let size = (Unix.stat newest).Unix.st_size in
      let fd = Unix.openfile newest [ Unix.O_WRONLY ] 0 in
      let _ = Unix.lseek fd (size / 2) Unix.SEEK_SET in
      ignore (Unix.write fd (Bytes.make 1 '\xa5') 0 1);
      Unix.close fd;
      let st2 = Result.get_ok (Store.open_store ~config:store_cfg ~init:(small_graph ()) dir) in
      let r = Store.recovery_info st2 in
      check_bool "warned about the rotted generation" true (r.Store.warnings <> []);
      (match r.Store.snapshot with
      | Some (name, _) -> check_string "older generation seated" (List.nth snaps 0) name
      | None -> Alcotest.fail "must still seat a snapshot");
      check_int "version recovered through fallback" version (Store.version st2);
      let edges_after =
        let d = Delta.create (Store.merge_now st2) in
        Delta.edge_array d
      in
      check_bool "state recovered through fallback" true (edges_before = edges_after);
      Store.close st2)

let test_store_auto_merge_and_invalidation () =
  with_temp_dir (fun dir ->
      let st = Result.get_ok (Store.open_store ~config:store_cfg ~init:(small_graph ()) dir) in
      let merges = ref [] in
      Store.set_on_merge st (fun v -> merges := v :: !merges);
      check_int "graph version starts at 0" 0 (Store.graph_version st);
      (* merge_threshold = 8. Vertex appends are never noops, so each one
         adds exactly one pending overlay op; the eighth trips the merge. *)
      for i = 0 to 9 do
        ignore (Store.add_vertex st ~label:(i mod 2))
      done;
      check_bool "auto-merge fired" true (!merges <> []);
      check_bool "graph version advanced" true (Store.graph_version st > 0);
      check_int "graph version = merge callback" (List.hd !merges) (Store.graph_version st);
      Store.close st)

(* --- service mutation path -------------------------------------------- *)

let service_config =
  { Service.default_config with workers = 1; slowlog_capacity = 32 }

let test_service_mutations () =
  with_temp_dir (fun dir ->
      let st = Result.get_ok (Store.open_store ~config:store_cfg ~init:(small_graph ()) dir) in
      let svc = Service.create ~config:service_config (Gf.Db.create (small_graph ())) in
      (* Read-only until a store is attached. *)
      (match Service.mutate svc (Service.M_add_vertex { label = 0 }) with
      | Error Service.M_read_only -> ()
      | _ -> Alcotest.fail "mutation without a store must be refused");
      Service.attach_store svc st;
      (match Service.mutate svc ~text:"addedge 0 3" (Service.M_add_edge { u = 0; v = 3; elabel = 0 }) with
      | Ok r ->
          check_bool "applied" true r.Service.m_applied;
          check_bool "durable covers lsn" true (r.Service.m_durable >= r.Service.m_lsn)
      | Error e -> Alcotest.fail (Service.mutation_error_to_string e));
      (match Service.mutate svc (Service.M_add_edge { u = 0; v = 99; elabel = 0 }) with
      | Error (Service.M_invalid _) -> ()
      | _ -> Alcotest.fail "invalid mutation must be structured refusal");
      (* A checkpoint merges and re-seats the db: replies must carry the
         new graph version. *)
      (match Service.mutate svc Service.M_checkpoint with
      | Ok r -> check_bool "checkpoint advances graph version" true (r.Service.m_graph_version > 0)
      | Error e -> Alcotest.fail (Service.mutation_error_to_string e));
      let stats = Service.stats svc in
      check_bool "stats see the store" true
        (stats.Service.s_graph_version > 0
        && stats.Service.s_checkpoints = 1
        && stats.Service.s_wal_durable = stats.Service.s_wal_version);
      (* The query path runs against the merged CSR and reports it. *)
      (match Service.submit svc (Service.request (Gf.Patterns.q 1)) with
      | Ok reply -> check_int "query sees merged version" (Service.graph_version svc) reply.Service.graph_version
      | Error _ -> Alcotest.fail "query must be admitted");
      Service.drain svc;
      Store.close st)

(* The merge-publication hook must invalidate the plan cache: cached plans
   were costed against the pre-merge catalogue, and the advanced graph
   version makes them unreachable anyway. *)
let test_service_plan_cache_invalidation () =
  with_temp_dir (fun dir ->
      let st = Result.get_ok (Store.open_store ~config:store_cfg ~init:(small_graph ()) dir) in
      let cache = Gf.Plan_cache.create () in
      let svc =
        Service.create ~config:service_config
          (Gf.Db.create ~plan_cache:cache (small_graph ()))
      in
      Service.attach_store svc st;
      let q = Gf.Patterns.q 1 in
      let submit () =
        match Service.submit svc (Service.request q) with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "query must be admitted"
      in
      submit ();
      submit ();
      let s1 = Service.stats svc in
      check_bool "identical resubmission hits" true (s1.Service.s_plan_cache_hits >= 1);
      check_bool "cold submission missed" true (s1.Service.s_plan_cache_misses >= 1);
      (* addedge + checkpoint merges the overlay and bumps graph_version:
         the hook must drop every cached plan. *)
      (match Service.mutate svc (Service.M_add_edge { u = 0; v = 3; elabel = 0 }) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Service.mutation_error_to_string e));
      (match Service.mutate svc Service.M_checkpoint with
      | Ok r -> check_bool "merge advanced version" true (r.Service.m_graph_version > 0)
      | Error e -> Alcotest.fail (Service.mutation_error_to_string e));
      let s2 = Service.stats svc in
      check_bool "merge invalidated the cache" true
        (s2.Service.s_plan_cache_invalidations >= 1);
      check_int "cache emptied" 0 s2.Service.s_plan_cache_entries;
      submit ();
      let s3 = Service.stats svc in
      check_bool "post-merge resubmission re-plans" true
        (s3.Service.s_plan_cache_misses > s2.Service.s_plan_cache_misses);
      Service.drain svc;
      Store.close st)

let suite =
  [
    ( "wal.crc32",
      [ Alcotest.test_case "vectors and incremental folding" `Quick test_crc32_vectors ] );
    ( "wal.log",
      [
        Alcotest.test_case "roundtrip with rotation" `Quick test_wal_roundtrip_rotation;
        Alcotest.test_case "torn tail truncated" `Quick test_wal_torn_tail_truncated;
        Alcotest.test_case "interior corruption refused" `Quick test_wal_corruption_mid_log_refused;
        Alcotest.test_case "missing prefix refused" `Quick test_wal_missing_prefix_refused;
        Alcotest.test_case "drop covered segments" `Quick test_wal_drop_segments;
      ] );
    ( "wal.delta",
      [
        Alcotest.test_case "overlay semantics and merge" `Quick test_delta_semantics;
        Alcotest.test_case "neighbours overlay view" `Quick test_delta_neighbours_sorted_view;
      ] );
    ( "wal.snapshot",
      [
        Alcotest.test_case "v2 roundtrip and bit-rot detection" `Quick
          test_snapshot_v2_roundtrip_and_bitrot;
        Alcotest.test_case "v1 backward compatible" `Quick test_snapshot_v1_still_loads;
        Alcotest.test_case "failed loads close their fd" `Quick test_snapshot_failed_load_closes_fd;
      ] );
    ( "wal.store",
      [
        Alcotest.test_case "snapshot+replay recovery" `Quick test_store_recovery_roundtrip;
        Alcotest.test_case "recovered state equals pre-close state" `Quick
          test_store_recovery_equals_state;
        Alcotest.test_case "ahead-of-snapshot log refused" `Quick test_store_refuses_gutted_log;
        Alcotest.test_case "bit-rotted snapshot falls back a generation" `Quick
          test_store_falls_back_to_older_snapshot;
        Alcotest.test_case "auto-merge bumps graph version" `Quick
          test_store_auto_merge_and_invalidation;
      ] );
    ( "wal.service",
      [
        Alcotest.test_case "durable mutations end to end" `Quick test_service_mutations;
        Alcotest.test_case "merge invalidates plan cache" `Quick
          test_service_plan_cache_invalidation;
      ] );
  ]
