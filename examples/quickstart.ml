(* Quickstart: build a graph, ask for a pattern, look at the plan.

   Run with: dune exec examples/quickstart.exe *)

module Gf = Graphflow

let () =
  (* A small synthetic social network: power-law degrees, lots of
     triangles. *)
  let g =
    Gf.Generators.holme_kim (Gf.Rng.create 1) ~n:5_000 ~m_per:5 ~p_triad:0.5 ~recip:0.3
  in
  Format.printf "graph: %a@." Gf.Graph_stats.pp_summary (Gf.Graph_stats.summarize g);

  (* A database session = graph + subgraph catalogue. *)
  let db = Gf.Db.create g in

  (* Queries are written as lists of directed edges. *)
  let triangle = Gf.Db.parse_query "a1->a2, a2->a3, a1->a3" in
  let diamond_x = Gf.Db.parse_query "a1->a2, a1->a3, a2->a3, a2->a4, a3->a4" in

  (* The optimizer picks a plan: look at it before running. *)
  print_endline "--- plan for the triangle ---";
  print_string (Gf.Db.explain db triangle);
  print_endline "--- plan for diamond-X ---";
  print_string (Gf.Db.explain db diamond_x);

  (* Execute. *)
  Printf.printf "triangles: %d\n" (Gf.Db.count db triangle);
  let c, _ = Gf.Db.run_gov db diamond_x in
  Printf.printf "diamond-X matches: %d (i-cost %d, cache hits %d)\n" c.Gf.Counters.output
    c.Gf.Counters.icost c.Gf.Counters.cache_hits;

  (* The first few matches, via a sink. *)
  let shown = ref 0 in
  let _ =
    Gf.Db.run_gov
      ~budget:(Gf.Governor.budget ~max_output:3 ())
      ~sink:(fun t ->
        incr shown;
        Printf.printf "match %d: (%s)\n" !shown
          (String.concat ", " (Array.to_list t |> List.map string_of_int)))
      db triangle
  in
  ()
