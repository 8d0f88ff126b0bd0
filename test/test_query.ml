open Gf_query
module Bitset = Gf_util.Bitset

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let triangle = Patterns.asymmetric_triangle
let dx = Patterns.diamond_x

let test_create_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "self loop" true
    (bad (fun () -> Query.unlabeled_edges 2 [ (0, 0) ]));
  check_bool "duplicate edge" true
    (bad (fun () -> Query.unlabeled_edges 2 [ (0, 1); (0, 1) ]));
  check_bool "out of range" true (bad (fun () -> Query.unlabeled_edges 2 [ (0, 2) ]));
  check_bool "anti-parallel ok" false
    (bad (fun () -> Query.unlabeled_edges 2 [ (0, 1); (1, 0) ]))

let test_basic_accessors () =
  check_int "n" 4 (Query.num_vertices dx);
  check_int "m" 5 (Query.num_edges dx);
  check_bool "has 0->1" true (Query.has_edge dx 0 1);
  check_bool "no 1->0" false (Query.has_edge dx 1 0);
  check_bool "adjacent both ways" true (Query.adjacent dx 1 0);
  Alcotest.(check (list int)) "neighbours of a2" [ 0; 2; 3 ]
    (Bitset.elements (Query.neighbours dx 1))

let test_connectivity () =
  check_bool "triangle connected" true (Query.is_connected triangle);
  check_bool "subset {0,1}" true (Query.is_connected_subset dx (Bitset.of_list [ 0; 1 ]));
  check_bool "subset {0,3}" false (Query.is_connected_subset dx (Bitset.of_list [ 0; 3 ]));
  check_bool "singleton" true (Query.is_connected_subset dx (Bitset.singleton 2));
  check_bool "empty" false (Query.is_connected_subset dx Bitset.empty);
  let disconnected =
    Query.create ~num_vertices:4
      ~edges:[| { Query.src = 0; dst = 1; label = 0 }; { Query.src = 2; dst = 3; label = 0 } |]
      ()
  in
  check_bool "disconnected" false (Query.is_connected disconnected)

let test_induced () =
  (* Diamond-X onto {a1,a2,a3} = triangle. *)
  let sub, map = Query.induced dx (Bitset.of_list [ 0; 1; 2 ]) in
  check_int "sub n" 3 (Query.num_vertices sub);
  check_int "sub m" 3 (Query.num_edges sub);
  Alcotest.(check (array int)) "map" [| 0; 1; 2 |] map;
  check_bool "iso to triangle" true (Canon.iso sub triangle);
  (* Onto {a2,a3,a4}: triangle a2->a3, a2->a4, a3->a4. *)
  let sub2, map2 = Query.induced dx (Bitset.of_list [ 1; 2; 3 ]) in
  Alcotest.(check (array int)) "map2" [| 1; 2; 3 |] map2;
  check_bool "second triangle" true (Canon.iso sub2 triangle);
  (* Onto {a1,a4}: no edges. *)
  let sub3, _ = Query.induced dx (Bitset.of_list [ 0; 3 ]) in
  check_int "no edges" 0 (Query.num_edges sub3)

let test_connected_orders_triangle () =
  let orders = Query.connected_orders triangle in
  (* Triangle: all 3! = 6 orders have connected prefixes. *)
  check_int "count" 6 (List.length orders);
  List.iter
    (fun o ->
      check_int "length" 3 (Array.length o);
      let sorted = Array.copy o in
      Array.sort compare sorted;
      Alcotest.(check (array int)) "permutation" [| 0; 1; 2 |] sorted)
    orders

let test_connected_orders_star () =
  (* 4-star: center 0. First vertex can be anything, but prefixes must stay
     connected: after two leaves without center, disconnected. *)
  let star = Patterns.q 11 in
  let orders = Query.connected_orders star in
  List.iter
    (fun o ->
      let prefix = ref Bitset.empty in
      Array.iter
        (fun v ->
          prefix := Bitset.add v !prefix;
          check_bool "prefix connected" true (Query.is_connected_subset star !prefix))
        o)
    orders;
  (* center first: 4! orders; center second: 4 choices of first leaf, then 3! = 24+24 = 48 *)
  check_int "count" 48 (List.length orders)

let test_connected_orders_extending () =
  let orders = Query.connected_orders_extending dx ~bound:(Bitset.of_list [ 0; 1 ]) in
  (* Extend {a1,a2} by {a3,a4}: a3 first then a4 always ok; a4 first (adj to
     a2) then a3 ok: 2 orders. *)
  check_int "count" 2 (List.length orders);
  List.iter (fun o -> check_int "len" 2 (Array.length o)) orders

(* The early-exit search finds the head of the full enumeration, for any
   last vertex and for each given one. *)
let test_first_connected_order () =
  let rng = Gf_util.Rng.create 5 in
  let queries =
    List.init 14 (fun i -> Patterns.q (i + 1))
    @ List.init 40 (fun i ->
          Patterns.random_query rng ~num_vertices:(3 + (i mod 6)) ~dense:(i mod 2 = 0)
            ~num_vlabels:1)
  in
  List.iter
    (fun q ->
      let orders = Query.connected_orders q in
      Alcotest.(check (array int)) "any last" (List.hd orders) (Query.first_connected_order q);
      for last = 0 to Query.num_vertices q - 1 do
        match List.find_opt (fun o -> o.(Array.length o - 1) = last) orders with
        | Some o -> Alcotest.(check (array int)) "given last" o (Query.first_connected_order ~last q)
        | None ->
            check_bool "no order ends there" true
              (try ignore (Query.first_connected_order ~last q); false
               with Invalid_argument _ -> true)
      done)
    queries

let test_automorphisms () =
  check_int "asym triangle trivial" 1 (List.length (Query.automorphisms triangle));
  check_int "diamond-x trivial" 1 (List.length (Query.automorphisms dx));
  (* Directed 4-cycle has the rotation group of order 4. *)
  check_int "4-cycle rotations" 4 (List.length (Query.automorphisms (Patterns.cycle 4)));
  (* Symmetric diamond-X: swapping the two 3-cycles (a1 <-> a4). *)
  check_int "sym diamond-x" 2 (List.length (Query.automorphisms Patterns.symmetric_diamond_x))

let test_relabel_vertices () =
  let perm = [| 2; 0; 1 |] in
  let t2 = Query.relabel_vertices triangle perm in
  (* 0->1 becomes 2->0, 1->2 becomes 0->1, 0->2 becomes 2->1 *)
  check_bool "2->0" true (Query.has_edge t2 2 0);
  check_bool "0->1" true (Query.has_edge t2 0 1);
  check_bool "2->1" true (Query.has_edge t2 2 1);
  check_bool "equal self" true (Query.equal triangle triangle);
  check_bool "not equal" false (Query.equal triangle t2)

(* ---------- Canon ---------- *)

let test_canon_iso_invariance () =
  (* Any vertex renaming of diamond-X has the same code. *)
  let base, _ = (Canon.code dx, ()) in
  List.iter
    (fun perm_list ->
      let perm = Array.of_list perm_list in
      let renamed = Query.relabel_vertices dx perm in
      Alcotest.(check string) "code invariant" (fst base) (fst (Canon.code renamed)))
    [ [ 1; 0; 2; 3 ]; [ 3; 2; 1; 0 ]; [ 2; 3; 0; 1 ] ]

let test_canon_distinguishes () =
  check_bool "triangle vs 3-cycle" false (Canon.iso triangle (Patterns.cycle 3));
  check_bool "dx vs tailed" false (Canon.iso dx Patterns.tailed_triangle);
  check_bool "labels matter" false
    (Canon.iso triangle
       (Query.create ~num_vertices:3 ~vlabels:[| 1; 0; 0 |]
          ~edges:(triangle.Query.edges) ()))

let test_canon_mark () =
  (* Tailed triangle: marking the tail vertex vs a triangle vertex differ. *)
  let t = Patterns.tailed_triangle in
  check_bool "mark 3 vs mark 0" false
    (fst (Canon.code ~mark:3 t) = fst (Canon.code ~mark:0 t));
  (* In the directed 3-cycle every vertex is equivalent: marks agree. *)
  let c3 = Patterns.cycle 3 in
  Alcotest.(check string) "cycle marks equal"
    (fst (Canon.code ~mark:0 c3))
    (fst (Canon.code ~mark:1 c3))

let test_canon_perm_is_consistent () =
  let code, perm = Canon.code dx in
  (* Applying the returned permutation must give a query whose identity
     permutation yields the same code. *)
  let canonical = Query.relabel_vertices dx perm in
  let code2, _ = Canon.code canonical in
  Alcotest.(check string) "perm consistent" code code2

(* Property: canonical code is invariant under random relabeling. *)
let prop_canon_invariant =
  let gen = QCheck2.Gen.(pair (int_range 2 5) (int_bound 1000)) in
  QCheck2.Test.make ~name:"canon code invariant under relabeling" ~count:100 gen
    (fun (n, seed) ->
      let rng = Gf_util.Rng.create seed in
      let q = Patterns.random_query rng ~num_vertices:n ~dense:true ~num_vlabels:2 in
      let perm = Array.init n (fun i -> i) in
      Gf_util.Rng.shuffle rng perm;
      let q2 = Query.relabel_vertices q perm in
      fst (Canon.code q) = fst (Canon.code q2))

(* The reference definition of [Canon.code] for up to [Canon.max_exact]
   vertices: every vertex order, in lexicographic order of the position ->
   vertex sequence, encoded with [Printf]; the first smallest string wins. *)
module Reference = struct
  let encode_under q mark perm =
    let n = Query.num_vertices q in
    let vl = Array.make n 0 in
    for i = 0 to n - 1 do
      vl.(perm.(i)) <- Query.vlabel q i
    done;
    let edges =
      Array.to_list q.Query.edges
      |> List.map (fun e -> (perm.(e.Query.src), perm.(e.Query.dst), e.Query.label))
      |> List.sort compare
    in
    let buf = Buffer.create 64 in
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf '|';
    Array.iter
      (fun l ->
        Buffer.add_string buf (string_of_int l);
        Buffer.add_char buf ',')
      vl;
    (match mark with
    | None -> Buffer.add_string buf "|-"
    | Some m ->
        Buffer.add_char buf '|';
        Buffer.add_string buf (string_of_int perm.(m)));
    List.iter
      (fun (s, d, l) -> Buffer.add_string buf (Printf.sprintf "|%d>%d@%d" s d l))
      edges;
    Buffer.contents buf

  let rec perms_of = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y <> x) l in
            List.map (fun p -> x :: p) (perms_of rest))
          l

  let code ?mark q =
    let n = Query.num_vertices q in
    let best = ref None in
    List.iter
      (fun p ->
        let perm = Array.make n 0 in
        List.iteri (fun pos orig -> perm.(orig) <- pos) p;
        let s = encode_under q mark perm in
        match !best with
        | Some (bs, _) when bs <= s -> ()
        | _ -> best := Some (s, perm))
      (perms_of (List.init n Fun.id));
    Option.get !best
end

(* Labels whose string order and numeric order disagree ("10" < "2"). *)
let label_pool = [| 0; 2; 10; 11; 100 |]

(* A query of [n] vertices of the given shape under a random vertex
   numbering, labeled from [label_pool] by [labels]: 0 gives every vertex
   one label and every edge one label (a single cell), 1 draws each label
   independently, 2 labels vertex [i] and its out-edges by [i mod 2] — on
   an even cycle the rotation by two then moves both cells at once, which
   pins down how ties between cells break. *)
let oracle_query rng ~n ~shape ~labels =
  let base =
    match shape with
    | 0 when n >= 3 -> Patterns.cycle n
    | 1 when n >= 3 -> Patterns.clique n ~cyclic:false
    | 2 when n >= 3 -> Patterns.clique n ~cyclic:true
    | 3 -> Query.unlabeled_edges n (List.init (n - 1) (fun i -> (0, i + 1)))
    | _ -> Patterns.random_query rng ~num_vertices:n ~dense:(Gf_util.Rng.bool rng) ~num_vlabels:1
  in
  let pick () = label_pool.(Gf_util.Rng.int rng (Array.length label_pool)) in
  let vl = Array.init 2 (fun _ -> pick ()) and el = Array.init 2 (fun _ -> pick ()) in
  let vlabel i = match labels with 0 -> vl.(0) | 1 -> pick () | _ -> vl.(i mod 2) in
  let elabel (e : Query.edge) =
    match labels with 0 -> el.(0) | 1 -> pick () | _ -> el.(e.src mod 2)
  in
  let vlabels = Array.init n vlabel in
  let edges = Array.map (fun e -> { e with Query.label = elabel e }) base.Query.edges in
  let q = Query.create ~num_vertices:n ~vlabels ~edges () in
  let perm = Array.init n Fun.id in
  Gf_util.Rng.shuffle rng perm;
  Query.relabel_vertices q perm

(* Property: [Canon.code] is the reference's (string, perm) for every mark
   and for none, on random, cyclic, clique and star shapes. *)
let prop_canon_matches_reference =
  let gen =
    QCheck2.Gen.(quad (int_range 2 7) (int_bound 4) (int_bound 2) (int_bound 1_000_000))
  in
  QCheck2.Test.make ~name:"canon code = brute-force reference" ~count:120 gen
    (fun (n, shape, labels, seed) ->
      let q = oracle_query (Gf_util.Rng.create seed) ~n ~shape ~labels in
      let show (code, perm) =
        code ^ " " ^ String.concat "," (Array.to_list (Array.map string_of_int perm))
      in
      List.for_all
        (fun mark ->
          let got = Canon.code ?mark q and want = Reference.code ?mark q in
          got = want
          || QCheck2.Test.fail_reportf "%s, mark %s: %s <> %s" (Query.to_string q)
               (match mark with None -> "-" | Some m -> string_of_int m)
               (show got) (show want))
        (None :: List.init n Option.some))

(* Ties between cells, every time: even cycles labeled with period two
   (vertex and out-edge labels by [i mod 2]) have rotations that move two
   cells at once, so only one cross-cell order of the search keeps the
   reference's tie-break. *)
let test_canon_cross_cell_ties () =
  List.iter
    (fun n ->
      for seed = 1 to 10 do
        let q = oracle_query (Gf_util.Rng.create seed) ~n ~shape:0 ~labels:2 in
        List.iter
          (fun mark ->
            let got = Canon.code ?mark q and want = Reference.code ?mark q in
            Alcotest.(check (pair string (array int))) (Query.to_string q) want got)
          (None :: List.init n Option.some)
      done)
    [ 4; 6 ]

(* A freshly numbered 7-vertex query with 7 distinct vertex labels has one
   candidate order: canonicalizing it must not allocate like a search over
   all 5,040 orders (about 3.9 M minor words). *)
let test_canon_allocation () =
  let rng = Gf_util.Rng.create 7 in
  let words = ref 0.0 in
  let calls = 20 in
  for i = 1 to calls do
    let base = Patterns.random_query rng ~num_vertices:7 ~dense:true ~num_vlabels:1 in
    (* Distinct labels, fresh for every call so the memo never answers. *)
    let vlabels = Array.init 7 (fun v -> (1000 * i) + v) in
    let q = Query.create ~num_vertices:7 ~vlabels ~edges:base.Query.edges () in
    let perm = Array.init 7 Fun.id in
    Gf_util.Rng.shuffle rng perm;
    let q = Query.relabel_vertices q perm in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Canon.code q));
    words := !words +. (Gc.minor_words () -. w0)
  done;
  let per_call = !words /. float_of_int calls in
  if per_call >= 20_000.0 then
    Alcotest.failf "Canon.code allocated %.0f minor words per call (limit 20000)" per_call

(* Beyond [Canon.max_exact] vertices, [code] must not raise: it degrades to
   a structural fallback key ("#"-prefixed, disjoint from true canonical
   codes) that is stable across calls and never aliases distinct shapes. *)
let test_canon_large_fallback () =
  let nine = Patterns.path 9 in
  let code, perm = Canon.code nine in
  check_bool "fallback prefixed" true (String.length code > 0 && code.[0] = '#');
  check_bool "identity perm" true (Array.to_list perm = List.init 9 Fun.id);
  (* Memoized: a second call returns the identical key. *)
  Alcotest.(check string) "stable across calls" code (fst (Canon.code nine));
  (* Distinct large shapes get distinct keys. *)
  check_bool "no aliasing" false (code = fst (Canon.code (Patterns.cycle 9)));
  (* Exact codes never collide with fallback keys. *)
  check_bool "disjoint from exact codes" false ((fst (Canon.code dx)).[0] = '#');
  (* iso degrades to structural equality, staying reflexive. *)
  check_bool "iso reflexive" true (Canon.iso nine (Patterns.path 9));
  check_bool "iso distinguishes" false (Canon.iso nine (Patterns.cycle 9))

let test_canon_memo_consistency () =
  (* Memoized and fresh computations agree, including with marks. *)
  let t = Patterns.tailed_triangle in
  let a = fst (Canon.code ~mark:2 t) in
  let b = fst (Canon.code ~mark:2 t) in
  Alcotest.(check string) "marked memo stable" a b;
  check_bool "mark keys distinct from unmarked" false (a = fst (Canon.code t))

(* ---------- Parser ---------- *)

let test_parser_triangle () =
  let q = Parser.parse "a1->a2, a2->a3, a1->a3" in
  check_bool "parses to triangle" true (Query.equal q triangle)

let test_parser_labels () =
  let q = Parser.parse "u:1, u->v@2, v->w, w:3" in
  check_int "vlabel u" 1 (Query.vlabel q 0);
  check_int "vlabel v" 0 (Query.vlabel q 1);
  check_int "vlabel w" 3 (Query.vlabel q 2);
  check_bool "edge label" true
    (Array.exists (fun e -> e.Query.src = 0 && e.Query.dst = 1 && e.Query.label = 2)
       q.Query.edges)

let test_parser_errors () =
  let fails s = try ignore (Parser.parse s); false with Failure _ -> true in
  check_bool "empty" true (fails "");
  check_bool "garbage" true (fails "hello world");
  check_bool "self loop" true (fails "a->a");
  check_bool "disconnected" true (fails "a->b, c->d");
  check_bool "dup edge" true (fails "a->b, a->b")

let test_parser_error_positions () =
  (* parse_result reports the byte offset of the offending item, so callers
     can point a caret at it. *)
  let err s =
    match Parser.parse_result s with
    | Ok _ -> Alcotest.fail ("accepted: " ^ s)
    | Error e ->
        check_bool "input preserved" true (e.Parse_error.input = s);
        e
  in
  let e = err "a1->a2, garbage" in
  check_int "offset of bad item" 8 e.Parse_error.pos;
  let e = err "a->b, u->v@zzz" in
  check_int "offset of bad edge label" 8 e.Parse_error.pos;
  check_bool "message names the token" true
    (String.length e.Parse_error.message > 0);
  let e = err "" in
  check_int "empty query at 0" 0 e.Parse_error.pos;
  (match Parser.parse_result "a->b, b->c" with
  | Ok q -> check_int "ok path intact" 3 (Query.num_vertices q)
  | Error e -> Alcotest.fail (Parse_error.to_string e))

(* ---------- Patterns ---------- *)

let test_patterns_shapes () =
  let expect = [ (1, 3, 3); (2, 4, 4); (3, 4, 5); (4, 4, 5); (5, 4, 6); (6, 4, 6);
                 (7, 5, 10); (8, 5, 6); (9, 6, 8); (10, 6, 8); (11, 5, 4); (12, 6, 6);
                 (13, 6, 5); (14, 7, 21) ] in
  List.iter
    (fun (i, n, m) ->
      let q = Patterns.q i in
      check_int (Printf.sprintf "Q%d vertices" i) n (Query.num_vertices q);
      check_int (Printf.sprintf "Q%d edges" i) m (Query.num_edges q);
      check_bool (Printf.sprintf "Q%d connected" i) true (Query.is_connected q))
    expect

let test_patterns_q12_is_cycle () =
  check_bool "Q12 = 6-cycle" true (Canon.iso (Patterns.q 12) (Patterns.cycle 6))

let test_randomize_edge_labels () =
  let rng = Gf_util.Rng.create 17 in
  let q = Patterns.randomize_edge_labels rng (Patterns.q 3) ~num_elabels:3 in
  check_int "same shape" 5 (Query.num_edges q);
  check_bool "labels in range" true
    (Array.for_all (fun e -> e.Query.label >= 0 && e.Query.label < 3) q.Query.edges)

let test_random_query () =
  let rng = Gf_util.Rng.create 23 in
  for n = 3 to 10 do
    let sparse = Patterns.random_query rng ~num_vertices:n ~dense:false ~num_vlabels:4 in
    let dense = Patterns.random_query rng ~num_vertices:n ~dense:true ~num_vlabels:4 in
    check_bool "sparse connected" true (Query.is_connected sparse);
    check_bool "dense connected" true (Query.is_connected dense);
    check_bool "dense has more edges" true
      (Query.num_edges dense >= Query.num_edges sparse)
  done

let suite =
  let q t = QCheck_alcotest.to_alcotest t in
  [
    ( "query.core",
      [
        Alcotest.test_case "validation" `Quick test_create_validation;
        Alcotest.test_case "accessors" `Quick test_basic_accessors;
        Alcotest.test_case "connectivity" `Quick test_connectivity;
        Alcotest.test_case "induced" `Quick test_induced;
        Alcotest.test_case "orders triangle" `Quick test_connected_orders_triangle;
        Alcotest.test_case "orders star" `Quick test_connected_orders_star;
        Alcotest.test_case "orders extending" `Quick test_connected_orders_extending;
        Alcotest.test_case "automorphisms" `Quick test_automorphisms;
        Alcotest.test_case "relabel" `Quick test_relabel_vertices;
        Alcotest.test_case "first connected order" `Quick test_first_connected_order;
      ] );
    ( "query.canon",
      [
        Alcotest.test_case "iso invariance" `Quick test_canon_iso_invariance;
        Alcotest.test_case "distinguishes" `Quick test_canon_distinguishes;
        Alcotest.test_case "marks" `Quick test_canon_mark;
        Alcotest.test_case "perm consistent" `Quick test_canon_perm_is_consistent;
        Alcotest.test_case "large-pattern fallback" `Quick test_canon_large_fallback;
        Alcotest.test_case "memo consistency" `Quick test_canon_memo_consistency;
        q prop_canon_invariant;
        q prop_canon_matches_reference;
        Alcotest.test_case "ties across cells" `Quick test_canon_cross_cell_ties;
        Alcotest.test_case "allocation" `Quick test_canon_allocation;
      ] );
    ( "query.parser",
      [
        Alcotest.test_case "triangle" `Quick test_parser_triangle;
        Alcotest.test_case "labels" `Quick test_parser_labels;
        Alcotest.test_case "errors" `Quick test_parser_errors;
        Alcotest.test_case "error positions" `Quick test_parser_error_positions;
      ] );
    ( "query.patterns",
      [
        Alcotest.test_case "shapes" `Quick test_patterns_shapes;
        Alcotest.test_case "q12 cycle" `Quick test_patterns_q12_is_cycle;
        Alcotest.test_case "randomize labels" `Quick test_randomize_edge_labels;
        Alcotest.test_case "random query" `Quick test_random_query;
      ] );
  ]
