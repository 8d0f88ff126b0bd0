(* Recommendation: diamonds in a follower network.

   Twitter's recommendation pipeline searches for "diamonds" in the
   follower graph (the paper's introduction cites exactly this use case):
   when a1 follows a2 and a3, and both follow a4, then a4 is a strong
   recommendation for a1. This example finds diamond instances and ranks
   recommendation candidates by how many diamonds support them.

   It also demonstrates that the optimizer picks different plan families for
   different patterns on the same graph, and shows adaptive execution.

   Run with: dune exec examples/recommendation.exe *)

module Gf = Graphflow

let () =
  (* Follower network: heavy-tailed in-degrees (celebrities). *)
  let g = Gf.Generators.barabasi_albert (Gf.Rng.create 3) ~n:3_000 ~m_per:4 ~recip:0.2 in
  Format.printf "follower network: %a@." Gf.Graph_stats.pp_summary
    (Gf.Graph_stats.summarize g);

  let db = Gf.Db.create g in

  (* The diamond: a1 -> {a2, a3} -> a4. *)
  let diamond = Gf.Db.parse_query "a1->a2, a1->a3, a2->a4, a3->a4" in
  print_endline "--- diamond plan ---";
  print_string (Gf.Db.explain db diamond);

  (* Group matches by (a1, a4): how many diamonds support recommending a4
     to a1. *)
  let t0 = Unix.gettimeofday () in
  let support = Gf.Db.count_by db diamond ~key:[ 0; 3 ] in
  Printf.printf "grouped %d (user, candidate) pairs in %.3fs\n" (List.length support)
    (Unix.gettimeofday () -. t0);

  (* Top recommendations: pairs with the most supporting diamonds, where a1
     does not already follow a4. *)
  let ranked =
    support
    |> List.filter (fun (k, _) ->
           (* drop self-recommendations (homomorphic matches allow a1 = a4)
              and candidates the user already follows *)
           k.(0) <> k.(1) && not (Gf.Graph.has_edge g k.(0) k.(1) ~elabel:0))
  in
  print_endline "top recommendations (user <- candidate, supporting diamonds):";
  List.iteri
    (fun i (k, n) ->
      if i < 5 then Printf.printf "  user %d -> candidate %d (%d diamonds)\n" k.(0) k.(1) n)
    ranked;

  (* Adaptive execution: same answer, work can differ per start edge. *)
  let fixed, _ = Gf.Db.run_gov db diamond in
  let adaptive, _ = Gf.Db.run_gov ~adaptive:true db diamond in
  Printf.printf "fixed i-cost %d vs adaptive i-cost %d (same %d matches)\n"
    fixed.Gf.Counters.icost adaptive.Gf.Counters.icost adaptive.Gf.Counters.output
