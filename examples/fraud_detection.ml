(* Fraud detection: cyclic patterns in a transaction network.

   The paper's introduction motivates subgraph queries with fraud detection:
   money that flows around a cycle of accounts and returns to its origin is
   a classic laundering signal. We build a synthetic transaction network
   with two edge labels (0 = ordinary payment, 1 = high-value transfer) and
   hunt for cycles of high-value transfers.

   Cycles are exactly where binary-join planners collapse (they must build
   huge open paths before closing them); the hybrid optimizer closes cycles
   with multiway intersections instead.

   Run with: dune exec examples/fraud_detection.exe *)

module Gf = Graphflow

let () =
  let rng = Gf.Rng.create 42 in
  (* Transaction network: skewed (a few merchant hubs), sparsely cyclic. *)
  let base = Gf.Generators.barabasi_albert (Gf.Rng.create 2) ~n:20_000 ~m_per:4 ~recip:0.15 in
  (* 15% of transactions are high-value (label 1). *)
  let edges =
    Array.map
      (fun (u, v, _) -> (u, v, if Gf.Rng.float rng 1.0 < 0.15 then 1 else 0))
      (Gf.Graph.edge_array base)
  in
  let g =
    Gf.Graph.build ~num_vlabels:1 ~num_elabels:2
      ~vlabel:(Array.make (Gf.Graph.num_vertices base) 0)
      ~edges
  in
  Format.printf "transaction network: %a@." Gf.Graph_stats.pp_summary
    (Gf.Graph_stats.summarize g);

  let db = Gf.Db.create g in

  (* Rings of high-value transfers: a -> b -> c -> a and length-4 rings. *)
  let ring3 = Gf.Db.parse_query "a->b@1, b->c@1, c->a@1" in
  let ring4 = Gf.Db.parse_query "a->b@1, b->c@1, c->d@1, d->a@1" in
  (* A "round trip": high-value out, eventually back via two ordinary hops. *)
  let round_trip = Gf.Db.parse_query "a->b@1, b->c@0, c->a@0" in

  List.iter
    (fun (label, q) ->
      let t0 = Unix.gettimeofday () in
      let c, _ = Gf.Db.run_gov db q in
      Printf.printf "%-12s %6d suspicious structures (%.3fs, i-cost %d)\n" label
        c.Gf.Counters.output
        (Unix.gettimeofday () -. t0)
        c.Gf.Counters.icost)
    [ ("ring3", ring3); ("ring4", ring4); ("round-trip", round_trip) ];

  (* Show the accounts in a few rings. *)
  print_endline "sample rings:";
  let _ =
    Gf.Db.run_gov
      ~budget:(Gf.Governor.budget ~max_output:5 ())
      ~sink:(fun t ->
        Printf.printf "  accounts %s\n"
          (String.concat " -> " (Array.to_list t |> List.map string_of_int)))
      db ring3
  in
  (* The plan: note the cycle is closed by an intersection, not a join. *)
  print_endline "--- ring4 plan ---";
  print_string (Gf.Db.explain db ring4)
