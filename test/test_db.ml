module Gf = Graphflow

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let db () =
  let g = Gf.Generators.holme_kim (Gf.Rng.create 81) ~n:200 ~m_per:4 ~p_triad:0.5 ~recip:0.3 in
  Gf.Db.create ~z:200 g

let test_quickstart_flow () =
  let db = db () in
  let q = Gf.Db.parse_query "a1->a2, a2->a3, a1->a3" in
  let expected = Gf.Naive.count (Gf.Db.graph db) q in
  check_int "count" expected (Gf.Db.count db q);
  check_int "adaptive count" expected (Gf.Db.count ~adaptive:true db q);
  check_bool "explain" true (String.length (Gf.Db.explain db q) > 10)

let test_sink_and_limit () =
  let db = db () in
  let q = Gf.Patterns.diamond_x in
  let seen = ref 0 in
  let c, outcome =
    Gf.Db.run_gov ~budget:(Gf.Governor.budget ~max_output:5 ()) ~sink:(fun _ -> incr seen) db q
  in
  check_bool "truncated" true (outcome = Gf.Governor.Truncated Gf.Governor.Output_limit);
  check_int "limit" 5 c.Gf.Counters.output;
  check_int "sink called" 5 !seen

let test_estimate () =
  let db = db () in
  let q = Gf.Patterns.asymmetric_triangle in
  let est = Gf.Db.estimate_cardinality db q in
  let truth = float_of_int (Gf.Db.count db q) in
  check_bool "estimate within 3x" true (Gf.Catalog.q_error ~estimate:est ~truth <= 3.0)

let test_adaptive_matches_fixed () =
  let db = db () in
  List.iter
    (fun i ->
      let q = Gf.Patterns.q i in
      check_int
        (Printf.sprintf "Q%d adaptive = fixed" i)
        (Gf.Db.count db q)
        (Gf.Db.count ~adaptive:true db q))
    [ 2; 3; 4; 8 ]

let suite =
  [
    ( "db",
      [
        Alcotest.test_case "quickstart" `Quick test_quickstart_flow;
        Alcotest.test_case "sink/limit" `Quick test_sink_and_limit;
        Alcotest.test_case "estimate" `Quick test_estimate;
        Alcotest.test_case "adaptive" `Quick test_adaptive_matches_fixed;
      ] );
  ]
