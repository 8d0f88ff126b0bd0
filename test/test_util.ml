open Gf_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Int_vec ---------- *)

let test_int_vec_basic () =
  let v = Int_vec.create () in
  check_bool "empty" true (Int_vec.is_empty v);
  for i = 0 to 99 do
    Int_vec.push v (i * 2)
  done;
  check_int "length" 100 (Int_vec.length v);
  check_int "get 7" 14 (Int_vec.get v 7);
  Int_vec.set v 7 (-1);
  check_int "set/get" (-1) (Int_vec.get v 7);
  Int_vec.clear v;
  check_int "cleared" 0 (Int_vec.length v)

let test_int_vec_bounds () =
  let v = Int_vec.of_array [| 1; 2; 3 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Int_vec.get") (fun () ->
      ignore (Int_vec.get v 3));
  Alcotest.check_raises "get neg" (Invalid_argument "Int_vec.get") (fun () ->
      ignore (Int_vec.get v (-1)));
  Alcotest.check_raises "set oob" (Invalid_argument "Int_vec.set") (fun () ->
      Int_vec.set v 5 0)

let test_int_vec_append () =
  let a = Int_vec.of_array [| 1; 2 |] and b = Int_vec.of_array [| 3; 4; 5 |] in
  Int_vec.append a b;
  Alcotest.(check (array int)) "append" [| 1; 2; 3; 4; 5 |] (Int_vec.to_array a);
  let c = Int_vec.create () in
  Int_vec.push_array c [| 9; 8; 7; 6 |] 1 3;
  Alcotest.(check (array int)) "push_array slice" [| 8; 7 |] (Int_vec.to_array c)

let test_int_vec_fold_iter () =
  let v = Int_vec.of_array [| 1; 2; 3; 4 |] in
  check_int "fold sum" 10 (Int_vec.fold_left ( + ) 0 v);
  let acc = ref [] in
  Int_vec.iter (fun x -> acc := x :: !acc) v;
  Alcotest.(check (list int)) "iter order" [ 4; 3; 2; 1 ] !acc

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref true in
  for _ = 1 to 20 do
    if Rng.int a 1_000_000 <> Rng.int b 1_000_000 then same := false
  done;
  check_bool "streams differ" false !same

let test_rng_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    check_bool "in range" true (x >= 0 && x < 17)
  done

let test_rng_uniformity () =
  let r = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let frac = float_of_int c /. float_of_int trials in
      check_bool (Printf.sprintf "bucket %d near 0.1 (%f)" i frac) true
        (frac > 0.08 && frac < 0.12))
    buckets

let test_rng_shuffle_permutes () =
  let r = Rng.create 5 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let r = Rng.create 9 in
  let s = Rng.sample_without_replacement r ~n:100 ~k:30 in
  check_int "size" 30 (Array.length s);
  let distinct = Hashtbl.create 64 in
  Array.iter
    (fun x ->
      check_bool "range" true (x >= 0 && x < 100);
      check_bool "distinct" false (Hashtbl.mem distinct x);
      Hashtbl.replace distinct x ())
    s;
  check_bool "ascending" true
    (Sorted.is_sorted_strict (Buf.of_int_array s) 0 (Array.length s))

let test_rng_geometric () =
  let r = Rng.create 13 in
  check_int "p=1 is 0" 0 (Rng.geometric r 1.0);
  let sum = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    sum := !sum + Rng.geometric r 0.5
  done;
  (* mean of geometric(0.5) failures-before-success = 1 *)
  let mean = float_of_int !sum /. float_of_int trials in
  check_bool (Printf.sprintf "mean near 1 (%f)" mean) true (mean > 0.9 && mean < 1.1)

(* ---------- Sorted ---------- *)

let naive_intersect a b =
  Array.to_list a |> List.filter (fun x -> Array.exists (( = ) x) b) |> Array.of_list

(* Kernels operate on off-heap Buf slices; wrap test arrays at the edge. *)
let ba a = Buf.of_int_array a
let sl a : Sorted.slice = (ba a, 0, Array.length a)

(* The k-way entry point over a fresh [Sorted.lists] of [slices]. *)
let kway out slices = Sorted.intersect out (Sorted.of_slices slices)

let test_intersect2_small () =
  let a = [| 1; 3; 5; 7; 9 |] and b = [| 2; 3; 4; 7; 10 |] in
  let out = Int_vec.create () in
  Sorted.intersect2 out (ba a) 0 (Array.length a) (ba b) 0 (Array.length b);
  Alcotest.(check (array int)) "intersection" [| 3; 7 |] (Int_vec.to_array out)

let test_intersect2_disjoint_and_empty () =
  let out = Int_vec.create () in
  Sorted.intersect2 out (ba [| 1; 2 |]) 0 2 (ba [| 3; 4 |]) 0 2;
  check_int "disjoint" 0 (Int_vec.length out);
  Sorted.intersect2 out (ba [||]) 0 0 (ba [| 1 |]) 0 1;
  check_int "empty lhs" 0 (Int_vec.length out)

let test_intersect2_galloping_path () =
  (* Force the galloping branch with a strongly skewed size ratio. *)
  let big = Array.init 10_000 (fun i -> i * 3) in
  let small = [| 0; 4242; 4243; 2999 * 3; 9999 * 3 |] in
  let out = Int_vec.create () in
  Sorted.intersect2 out (ba small) 0 (Array.length small) (ba big) 0 (Array.length big);
  (* 4242 = 3 * 1414 is in [big]; 4243 is not. *)
  Alcotest.(check (array int)) "gallop" [| 0; 4242; 2999 * 3; 9999 * 3 |] (Int_vec.to_array out)

let test_intersect2_slices () =
  let a = ba [| 0; 1; 2; 3; 4; 5 |] in
  let out = Int_vec.create () in
  (* Only consider a[2..5) = {2,3,4} against {3,4,5}. *)
  Sorted.intersect2 out a 2 5 (ba [| 3; 4; 5 |]) 0 3;
  Alcotest.(check (array int)) "slice" [| 3; 4 |] (Int_vec.to_array out)

let test_intersect_multiway () =
  let slices =
    [|
      sl [| 1; 2; 3; 4; 5; 6; 7; 8 |];
      sl [| 2; 4; 6; 8; 10 |];
      sl [| 4; 5; 6; 7; 8 |];
    |]
  in
  let out = Int_vec.create () in
  kway out slices;
  Alcotest.(check (array int)) "3-way" [| 4; 6; 8 |] (Int_vec.to_array out)

let test_intersect_single_and_zero () =
  let out = Int_vec.create () in
  kway out [| sl [| 5; 6 |] |];
  Alcotest.(check (array int)) "1-way copies" [| 5; 6 |] (Int_vec.to_array out);
  Int_vec.clear out;
  kway out [||];
  check_int "0-way empty" 0 (Int_vec.length out)

let test_lower_bound_member () =
  let a = ba [| 2; 4; 6; 8 |] in
  check_int "lb exact" 1 (Sorted.lower_bound a 0 4 4);
  check_int "lb between" 2 (Sorted.lower_bound a 0 4 5);
  check_int "lb before" 0 (Sorted.lower_bound a 0 4 0);
  check_int "lb after" 4 (Sorted.lower_bound a 0 4 99);
  check_bool "member yes" true (Sorted.member a 0 4 6);
  check_bool "member no" false (Sorted.member a 0 4 5)

let test_gallop_edges () =
  let raw = [| 10; 20; 30; 40; 50; 60; 70; 80 |] in
  let a = ba raw in
  let n = Array.length raw in
  (* empty slice: lo = hi is the only possible answer *)
  check_int "empty slice" 3 (Sorted.gallop a 3 3 25);
  check_int "empty slice at 0" 0 (Sorted.gallop a 0 0 99);
  (* whole-array boundaries *)
  check_int "before first" 0 (Sorted.gallop a 0 n 5);
  check_int "at first" 0 (Sorted.gallop a 0 n 10);
  check_int "exact interior" 4 (Sorted.gallop a 0 n 50);
  check_int "between keys" 4 (Sorted.gallop a 0 n 45);
  check_int "at last" (n - 1) (Sorted.gallop a 0 n 80);
  check_int "past last" n (Sorted.gallop a 0 n 99);
  (* single-element slices *)
  check_int "single hit" 2 (Sorted.gallop a 2 3 30);
  check_int "single miss low" 2 (Sorted.gallop a 2 3 25);
  check_int "single miss high" 3 (Sorted.gallop a 2 3 35);
  (* sub-slice windows must clamp at hi, never run past it *)
  check_int "subslice clamp" 5 (Sorted.gallop a 2 5 99);
  check_int "subslice interior" 3 (Sorted.gallop a 2 5 40)

(* Property: gallop is lower_bound, for any sub-slice and probe. *)
let prop_gallop_equals_lower_bound =
  let gen =
    QCheck2.Gen.(
      pair (list_size (int_bound 300) (int_bound 1000)) (pair (int_bound 1001) (int_bound 300)))
  in
  QCheck2.Test.make ~name:"gallop = lower_bound" ~count:300 gen (fun (l, (x, off)) ->
      let a = List.sort_uniq compare l |> Array.of_list in
      let n = Array.length a in
      let lo = if n = 0 then 0 else off mod (n + 1) in
      Sorted.gallop (ba a) lo n x = Sorted.lower_bound (ba a) lo n x)

let test_degenerate_slices () =
  let out = Int_vec.create () in
  (* single-element slices, all equal keys *)
  kway out [| sl [| 7 |]; sl [| 7 |]; sl [| 7 |] |];
  Alcotest.(check (array int)) "singletons equal" [| 7 |] (Int_vec.to_array out);
  Int_vec.clear out;
  (* single-element slices, distinct keys *)
  kway out [| sl [| 7 |]; sl [| 8 |] |];
  check_int "singletons distinct" 0 (Int_vec.length out);
  (* identical slices: intersection is the slice itself *)
  let a = [| 1; 4; 9; 16; 25 |] in
  let s = sl a in
  kway out [| s; s; s |];
  Alcotest.(check (array int)) "identical slices" a (Int_vec.to_array out);
  Int_vec.clear out;
  (* one slice's first key exceeds every other slice's last key *)
  kway out [| sl [| 1; 2; 3 |]; sl [| 90; 100 |] |];
  check_int "disjoint ranges (high last)" 0 (Int_vec.length out);
  kway out [| sl [| 90; 100 |]; sl [| 1; 2; 3 |]; sl [| 2; 91 |] |];
  check_int "disjoint ranges (high first)" 0 (Int_vec.length out)

(* 4-way-and-wider intersections exercise the second ping-pong buffer.
   One [Sorted.lists] is reused across calls, as an E/I operator does:
   stale scratch contents must not leak into the result. *)
let test_intersect_wide_scratch2 () =
  let l =
    Sorted.of_slices
      [|
        sl [| 1; 2; 3; 4; 5; 6; 7; 8; 9 |];
        sl [| 2; 4; 6; 8; 10 |];
        sl [| 1; 2; 4; 6; 8 |];
        sl [| 4; 6; 8; 12 |];
      |]
  in
  let out = Int_vec.create () in
  Sorted.intersect out l;
  Alcotest.(check (array int)) "4-way" [| 4; 6; 8 |] (Int_vec.to_array out);
  Int_vec.clear out;
  Sorted.intersect out l;
  Alcotest.(check (array int)) "4-way reused lists" [| 4; 6; 8 |] (Int_vec.to_array out);
  Int_vec.clear out;
  Sorted.set l 3 (sl [| 0; 4; 8; 100 |]);
  Sorted.intersect out l;
  Alcotest.(check (array int)) "4-way refilled list" [| 4; 8 |] (Int_vec.to_array out)

(* Property: intersect2 agrees with a naive quadratic implementation. *)
let prop_intersect2 =
  let gen =
    QCheck2.Gen.(
      pair (list_size (int_bound 200) (int_bound 500)) (list_size (int_bound 200) (int_bound 500)))
  in
  QCheck2.Test.make ~name:"intersect2 matches naive" ~count:300 gen (fun (la, lb) ->
      let dedup_sort l = List.sort_uniq compare l |> Array.of_list in
      let a = dedup_sort la and b = dedup_sort lb in
      let out = Int_vec.create () in
      Sorted.intersect2 out (ba a) 0 (Array.length a) (ba b) 0 (Array.length b);
      Int_vec.to_array out = naive_intersect a b)

let prop_intersect_multiway =
  let gen = QCheck2.Gen.(list_size (int_range 2 5) (list_size (int_bound 100) (int_bound 300))) in
  QCheck2.Test.make ~name:"k-way intersect matches pairwise folding" ~count:200 gen
    (fun lists ->
      let arrays = List.map (fun l -> List.sort_uniq compare l |> Array.of_list) lists in
      let slices = Array.of_list (List.map sl arrays) in
      let out = Int_vec.create () in
      kway out slices;
      let expected =
        match arrays with
        | [] -> [||]
        | first :: rest -> List.fold_left (fun acc a -> naive_intersect acc a) first rest
      in
      Int_vec.to_array out = expected)

let prop_gallop_equals_tandem =
  let gen = QCheck2.Gen.(pair (list_size (int_bound 20) (int_bound 2000)) (list_size (int_range 500 800) (int_bound 2000))) in
  QCheck2.Test.make ~name:"gallop path = tandem path" ~count:100 gen (fun (la, lb) ->
      let a = List.sort_uniq compare la |> Array.of_list in
      let b = List.sort_uniq compare lb |> Array.of_list in
      let out = Int_vec.create () in
      Sorted.intersect2 out (ba a) 0 (Array.length a) (ba b) 0 (Array.length b);
      Int_vec.to_array out = naive_intersect a b)

(* [count_intersect2] is [intersect2]'s length, over balanced and skewed
   pairs both ways round, and allocates nothing: the triangle sampler
   calls it once per sampled edge. *)
let test_count_intersect2 () =
  let rng = Rng.create 17 in
  let gen len = List.init len (fun _ -> Rng.int rng 5000) |> List.sort_uniq compare |> Array.of_list in
  let pairs =
    List.init 30 (fun i ->
        let la = if i mod 3 = 0 then Rng.int rng 20 else Rng.int rng 800 in
        (gen la, gen (Rng.int rng 800)))
  in
  let pairs = pairs @ List.map (fun (a, b) -> (b, a)) pairs in
  let bufs = List.map (fun (a, b) -> (ba a, Array.length a, ba b, Array.length b)) pairs in
  List.iter
    (fun (a, la, b, lb) ->
      let out = Int_vec.create () in
      Sorted.intersect2 out a 0 la b 0 lb;
      check_int "count = intersect2 length" (Int_vec.length out)
        (Sorted.count_intersect2 a 0 la b 0 lb))
    bufs;
  (* 100 rounds: a per-call allocation would cost thousands of words, the
     loop itself a handful. *)
  let bufs = Array.of_list bufs in
  let w0 = Gc.minor_words () in
  let total = ref 0 in
  for _ = 1 to 100 do
    for i = 0 to Array.length bufs - 1 do
      let a, la, b, lb = bufs.(i) in
      total := !total + Sorted.count_intersect2 a 0 la b 0 lb
    done
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool
    (Printf.sprintf "%.0f minor words for %d counts" words (100 * Array.length bufs))
    true
    (words < 100.0 && !total > 0)

(* ---------- Bitset ---------- *)

let test_bitset_basic () =
  let s = Bitset.of_list [ 0; 3; 5 ] in
  check_bool "mem 3" true (Bitset.mem 3 s);
  check_bool "mem 1" false (Bitset.mem 1 s);
  check_int "cardinal" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "elements sorted" [ 0; 3; 5 ] (Bitset.elements s);
  check_int "min_elt" 0 (Bitset.min_elt s);
  let s2 = Bitset.remove 0 s in
  check_int "min after remove" 3 (Bitset.min_elt s2);
  check_bool "subset" true (Bitset.subset s2 s);
  check_bool "not subset" false (Bitset.subset s s2)

let test_bitset_set_ops () =
  let a = Bitset.of_list [ 1; 2; 3 ] and b = Bitset.of_list [ 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.elements (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 3 ] (Bitset.elements (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Bitset.elements (Bitset.diff a b));
  check_int "full 4" 15 (Bitset.full 4)

let test_bitset_subset_enumeration () =
  let s = Bitset.of_list [ 0; 1; 2 ] in
  let subsets = Bitset.fold_proper_nonempty_subsets (fun x acc -> x :: acc) s [] in
  check_int "2^3 - 2 proper nonempty" 6 (List.length subsets);
  List.iter
    (fun x ->
      check_bool "proper" true (x <> s && x <> Bitset.empty);
      check_bool "subset" true (Bitset.subset x s))
    subsets

(* ---------- Json ---------- *)

(* Strings built from the bytes an escaper gets wrong: quotes, backslashes,
   every control byte, text that looks like an escape, and high bytes. *)
let json_value_gen =
  let open QCheck2.Gen in
  let byte =
    frequency
      [ (3, printable); (2, char_range '\000' '\031'); (1, oneofl [ '"'; '\\'; '/'; 'u' ]);
        (1, char_range '\128' '\255') ]
  in
  let str =
    oneof
      [ string_size ~gen:byte (int_bound 12);
        oneofl [ "\\u0041"; "\\"; "\\\""; "\\n"; "\\ud83d"; "\xc3\xa9"; "" ] ]
  in
  let finite =
    oneof
      [ map (fun f -> if Float.is_finite f then f else 0.5) float;
        oneofl [ 0.0; -0.0; 1.0; 0.1; 1e300; 5e-324; -2.5; 1e15; 123456789012.5 ] ]
  in
  let leaf =
    oneof
      [ pure Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
        map (fun f -> Json.Float f) finite; map (fun s -> Json.Str s) str ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [ (2, leaf); (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map (fun kv -> Json.Obj kv)
                   (list_size (int_bound 4) (pair str (self (n / 2)))) ) ])

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"parse (to_string v) = v" ~count:500 json_value_gen (fun v ->
      let text = Json.to_string v in
      (not (String.contains text '\n')) && Json.parse text = Ok v)

let test_json_nonfinite () =
  List.iter
    (fun f ->
      Alcotest.(check string) "non-finite prints null" "null" (Json.to_string (Json.Float f)))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check string) "inside containers too" {|[1.5,{"x":null}]|}
    (Json.to_string (Json.Arr [ Float 1.5; Obj [ ("x", Float nan) ] ]));
  Alcotest.(check string) "integral floats keep a point" "[2.0,1e+300]"
    (Json.to_string (Json.Arr [ Float 2.0; Float 1e300 ]))

let test_json_rejects () =
  List.iter
    (fun text ->
      check_bool (Printf.sprintf "rejects %S" text) true (Result.is_error (Json.parse text)))
    [ {|{"a":1} x|}; "[1] [2]"; "1 2"; {|"abc|}; {|["abc]|}; {|{"a":"b}|}; "\"a\nb\"";
      "\"a\tb\""; "\"\000\""; "[,1]"; {|{,"a":1}|}; "[1,]"; {|{"a":1,}|}; "[1,,2]"; "";
      "   "; "01"; "1."; "-"; ".5"; "1e"; "+1"; "tru"; "nul"; {|"\x"|}; {|"\u12"|};
      {|"\ud800"|}; "{\"a\" 1}"; "[1 2]"; "NaN"; "Infinity" ];
  check_bool "whitespace around values accepted" true
    (Json.parse " {\"a\" : [1, 2.5e3, -0, null, \"\\u00e9\"]} \n"
    = Ok (Json.Obj [ ("a", Arr [ Int 1; Float 2500.; Int 0; Null; Str "\xc3\xa9" ]) ]));
  check_bool "ints past the int range read as floats" true
    (Json.parse "123456789012345678901234567890" = Ok (Json.Float 1.2345678901234568e29))

let test_json_member_top_level () =
  let v =
    match Json.parse {|{"a":{"completed":1},"fleet":[{"completed":2}],"c":2,"c":3}|} with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  check_bool "nested key not found at the top" true (Json.member "completed" v = None);
  check_bool "first of a repeated key" true (Json.int "c" v = Some 2);
  check_bool "wrong type is None" true (Json.str "c" v = None && Json.float "c" v = Some 2.);
  check_bool "non-object has no members" true (Json.member "a" (Json.Arr [ v ]) = None)

let suite =
  let q t = QCheck_alcotest.to_alcotest t in
  [
    ( "util.int_vec",
      [
        Alcotest.test_case "basic" `Quick test_int_vec_basic;
        Alcotest.test_case "bounds" `Quick test_int_vec_bounds;
        Alcotest.test_case "append" `Quick test_int_vec_append;
        Alcotest.test_case "fold/iter" `Quick test_int_vec_fold_iter;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_rng_different_seeds;
        Alcotest.test_case "range" `Quick test_rng_range;
        Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        Alcotest.test_case "sample w/o replacement" `Quick test_rng_sample_without_replacement;
        Alcotest.test_case "geometric" `Quick test_rng_geometric;
      ] );
    ( "util.sorted",
      [
        Alcotest.test_case "intersect2 small" `Quick test_intersect2_small;
        Alcotest.test_case "disjoint/empty" `Quick test_intersect2_disjoint_and_empty;
        Alcotest.test_case "galloping" `Quick test_intersect2_galloping_path;
        Alcotest.test_case "slices" `Quick test_intersect2_slices;
        Alcotest.test_case "multiway" `Quick test_intersect_multiway;
        Alcotest.test_case "single/zero way" `Quick test_intersect_single_and_zero;
        Alcotest.test_case "lower_bound/member" `Quick test_lower_bound_member;
        Alcotest.test_case "gallop edges" `Quick test_gallop_edges;
        Alcotest.test_case "wide intersect scratch2" `Quick test_intersect_wide_scratch2;
        Alcotest.test_case "degenerate slices" `Quick test_degenerate_slices;
        Alcotest.test_case "count_intersect2 allocates nothing" `Quick test_count_intersect2;
        q prop_intersect2;
        q prop_gallop_equals_lower_bound;
        q prop_intersect_multiway;
        q prop_gallop_equals_tandem;
      ] );
    ( "util.json",
      [
        q prop_json_roundtrip;
        Alcotest.test_case "non-finite floats print null" `Quick test_json_nonfinite;
        Alcotest.test_case "parser rejects malformed input" `Quick test_json_rejects;
        Alcotest.test_case "member reads the top level only" `Quick test_json_member_top_level;
      ] );
    ( "util.bitset",
      [
        Alcotest.test_case "basic" `Quick test_bitset_basic;
        Alcotest.test_case "set ops" `Quick test_bitset_set_ops;
        Alcotest.test_case "subset enumeration" `Quick test_bitset_subset_enumeration;
      ] );
  ]
