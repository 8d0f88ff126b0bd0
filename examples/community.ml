(* Community structure: cliques in a social network.

   Clique-like structures indicate communities (the paper cites Newman's
   community detection work). Densely cyclic queries are where worst-case
   optimal plans shine: binary-join plans cannot even express a clique
   under the projection constraint, and Neo4j-style BJ execution must
   enumerate enormous open intermediate results.

   This example counts 3- and 4-cliques, compares the WCO pipeline against
   the Neo4j-style binary-join baseline, and prints per-vertex clique
   participation as a community-ness score.

   Run with: dune exec examples/community.exe *)

module Gf = Graphflow

let () =
  (* A clustered social network. *)
  let g =
    Gf.Generators.holme_kim (Gf.Rng.create 4) ~n:8_000 ~m_per:6 ~p_triad:0.6 ~recip:0.4
  in
  Format.printf "social network: %a@." Gf.Graph_stats.pp_summary (Gf.Graph_stats.summarize g);

  let db = Gf.Db.create g in
  let triangle = Gf.Patterns.q 1 in
  let four_clique = Gf.Patterns.q 5 in

  (* WCO pipeline. *)
  List.iter
    (fun (label, q) ->
      let t0 = Unix.gettimeofday () in
      let c, _ = Gf.Db.run_gov db q in
      Printf.printf "%-10s %8d matches  %.3fs (graphflow, i-cost %d)\n" label
        c.Gf.Counters.output
        (Unix.gettimeofday () -. t0)
        c.Gf.Counters.icost)
    [ ("triangle", triangle); ("4-clique", four_clique) ];

  (* Neo4j-style binary joins on the same queries. *)
  List.iter
    (fun (label, q) ->
      let t0 = Unix.gettimeofday () in
      let s = Gf.Bj_baseline.run g q in
      Printf.printf "%-10s %8d matches  %.3fs (binary joins, %d intermediate)\n" label
        s.Gf.Bj_baseline.matches
        (Unix.gettimeofday () -. t0)
        s.Gf.Bj_baseline.intermediate)
    [ ("triangle", triangle); ("4-clique", four_clique) ];

  (* Community-ness: how many 4-cliques each vertex participates in. *)
  let participation = Array.make (Gf.Graph.num_vertices g) 0 in
  let _ =
    Gf.Db.run_gov
      ~sink:(fun t -> Array.iter (fun v -> participation.(v) <- participation.(v) + 1) t)
      db four_clique
  in
  let ranked =
    Array.mapi (fun v n -> (n, v)) participation
    |> Array.to_list
    |> List.sort (fun a b -> compare b a)
  in
  print_endline "most clique-embedded vertices (vertex, 4-clique count):";
  List.iteri (fun i (n, v) -> if i < 5 then Printf.printf "  vertex %d: %d\n" v n) ranked
