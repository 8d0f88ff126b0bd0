open Gfqbench_lib
module Gf = Graphflow

let spec name = Option.get (Workload.find name)

let tail_percentile () =
  Alcotest.(check (float 0.)) "900 samples" 95. (Stats.tail_percentile 900);
  Alcotest.(check (float 0.)) "40,000 samples" 99. (Stats.tail_percentile 40_000);
  Alcotest.(check (float 0.)) "150 samples" 90. (Stats.tail_percentile 150)

let quartiles () =
  (* Reference values from Python's statistics.quantiles(xs, n=4). *)
  let check xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.(check (list (float 1e-9))) "quartiles" [ a; b; c ] [ q1; q2; q3 ]
  in
  check [| 1.; 2. |] (0.75, 1.5, 2.25);
  check [| 5.; 1.; 4.; 2.; 3. |] (1.5, 3., 4.5);
  check [| 3.5; 1.25; 9.; 2.; 2.; 7. |] (1.8125, 2.75, 7.5)

(* A duration is scaled by nominal speed over the mean of the calibration
   samples around it. *)
let calib_scale () =
  let n = Calib.nominal_ms in
  Alcotest.(check (float 1e-12)) "at nominal speed" 0.25 (Calib.scale ~a:n ~b:n 0.25);
  Alcotest.(check (float 1e-12)) "twice as slow" 0.5 (Calib.scale ~a:(2. *. n) ~b:(2. *. n) 1.0);
  Alcotest.(check (float 1e-12)) "between two speeds" 0.5 (Calib.scale ~a:n ~b:(3. *. n) 1.0)

let lines name ~seed n =
  let inp = Workload.inputs (spec name) ~seed in
  Array.to_list inp.warmup @ List.init n (fun _ -> (inp.read () : Streams.read).line)

let streams_are_seeded () =
  List.iter
    (fun name ->
      let a = lines name ~seed:1 200 and b = lines name ~seed:1 200 in
      Alcotest.(check (list string)) (name ^ ": same seed") a b;
      Alcotest.(check bool) (name ^ ": other seed") false (a = lines name ~seed:2 200))
    [ "wco-heavy"; "labeled-short"; "cluster-1x2" ]

(* Every block of the labeled mix holds the same number of requests of
   each size, one of each size's never-seen. *)
let labeled_mix_is_fixed () =
  let inp = Workload.inputs (spec "labeled-short") ~seed:4 in
  let block = Array.fold_left ( + ) 0 Streams.per_block in
  let reads = List.init (10 * block) (fun _ -> inp.read ()) in
  let count p = List.length (List.filter p reads) in
  Array.iteri
    (fun c size ->
      let sized (r : Streams.read) = r.query.Gf.Query.num_vertices = size in
      Alcotest.(check int)
        (Printf.sprintf "%d-vertex requests" size)
        (10 * Streams.per_block.(c))
        (count sized);
      Alcotest.(check int)
        (Printf.sprintf "never-seen %d-vertex requests" size)
        10
        (count (fun r -> sized r && r.pool = None)))
    Streams.sizes

let cpu_lists () =
  let check s want = Alcotest.(check (list int)) s want (Serve.parse_cpu_list s) in
  check "0-1" [ 0; 1 ];
  check "2,3" [ 2; 3 ];
  check "0-3,6" [ 0; 1; 2; 3; 6 ];
  check "5" [ 5 ];
  check "3-1" [];
  check "" []

let mutations_apply () =
  let inp = Workload.inputs (spec "read-write") ~seed:3 in
  let next = Option.get inp.writes in
  let muts = List.init 20_000 (fun _ -> next ()) in
  let pairs = Hashtbl.create 20_000 in
  List.iter
    (fun m ->
      let (Streams.Add (u, v) | Streams.Del (u, v)) = m in
      Alcotest.(check bool) "no self-loop" false (u = v);
      Alcotest.(check bool) "pair used once" false (Hashtbl.mem pairs (u, v));
      Hashtbl.replace pairs (u, v) ();
      let present = Gf.Graph.has_edge inp.graph u v ~elabel:0 in
      match m with
      | Streams.Add _ -> Alcotest.(check bool) "insert of an absent edge" false present
      | Streams.Del _ -> Alcotest.(check bool) "delete of a genesis edge" true present)
    muts;
  let adds = List.length (List.filter (function Streams.Add _ -> true | Streams.Del _ -> false) muts) in
  let g' = Streams.apply_mutations inp.graph muts in
  Alcotest.(check int) "every mutation applies" (Gf.Graph.num_edges inp.graph + adds - (20_000 - adds))
    (Gf.Graph.num_edges g')

let replay_counts_repeat () =
  let s = spec "labeled-short" in
  let replay () =
    let inp = Workload.inputs s ~seed:5 in
    let seq = Layers.sequence s inp in
    Layers.counts (Layers.db_pass inp.graph (Array.sub seq 0 400))
  in
  Alcotest.(check (list (pair string (float 0.)))) "identical counts" (replay ()) (replay ())

let () =
  Alcotest.run "gfqbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile" `Quick tail_percentile;
          Alcotest.test_case "python quartiles" `Quick quartiles;
          Alcotest.test_case "calibration scaling" `Quick calib_scale;
        ] );
      ("serve", [ Alcotest.test_case "cpu lists" `Quick cpu_lists ]);
      ( "inputs",
        [
          Alcotest.test_case "streams are seeded" `Quick streams_are_seeded;
          Alcotest.test_case "labeled mix is fixed per block" `Quick labeled_mix_is_fixed;
          Alcotest.test_case "mutations always apply" `Quick mutations_apply;
        ] );
      ("traced", [ Alcotest.test_case "replay counts repeat" `Quick replay_counts_repeat ]);
    ]
