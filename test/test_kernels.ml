(* Differential tests for the intersection kernels: the scalar OCaml
   fallback and the C stubs (SIMD where the CPU has it) must produce
   bit-identical output — the set intersection of strictly increasing
   sequences is unique, so any divergence is a kernel bug.
   Inputs deliberately cover the kernels' dispatch regimes: balanced pairs
   (shuffle path), heavily skewed pairs (blocked galloping), dense
   consecutive runs (full-match compaction), empties and singletons, and
   both element widths on each side. *)

open Gf_util
module Graph = Gf_graph.Graph
module Gf = Graphflow

let check_int = Alcotest.(check int)

let run_kernel mode a alo ahi b blo bhi =
  Sorted.with_kernel_mode mode (fun () ->
      let out = Int_vec.create () in
      Sorted.intersect2 out a alo ahi b blo bhi;
      Int_vec.to_array out)

let naive a alo ahi b blo bhi =
  let out = ref [] in
  for i = alo to ahi - 1 do
    let x = Buf.get a i in
    let found = ref false in
    for j = blo to bhi - 1 do
      if Buf.get b j = x then found := true
    done;
    if !found then out := x :: !out
  done;
  Array.of_list (List.rev !out)

(* Sorted distinct arrays with controllable length and density. [density]
   close to 1.0 yields dense consecutive runs (the shuffle kernel's
   full-match fast path); small densities yield sparse lists. *)
let gen_sorted rng ~len ~density =
  let out = Array.make len 0 in
  let v = ref 0 in
  for i = 0 to len - 1 do
    let gap = 1 + Rng.geometric rng density in
    v := !v + gap;
    out.(i) <- !v
  done;
  out

let widths = [ `I32; `I64 ]

let width_name = function `I32 -> "i32" | `I64 -> "i64" | `Auto -> "auto"

(* One differential trial: every kernel and width combination against the
   quadratic reference. *)
let differential_trial rng ~la ~lb ~density =
  let a = gen_sorted rng ~len:la ~density in
  let b =
    (* Overlap half the time by sampling b out of a's value range. *)
    if Rng.int rng 2 = 0 then gen_sorted rng ~len:lb ~density
    else
      Array.init lb (fun _ -> if la = 0 then Rng.int rng 100 else a.(Rng.int rng la))
      |> Array.to_list |> List.sort_uniq compare |> Array.of_list
  in
  let lb = Array.length b in
  List.iter
    (fun wa ->
      List.iter
        (fun wb ->
          let ba = Buf.of_int_array ~width:wa a and bb = Buf.of_int_array ~width:wb b in
          let expect = naive ba 0 la bb 0 lb in
          let scalar = run_kernel Sorted.Scalar ba 0 la bb 0 lb in
          let simd = run_kernel Sorted.Simd ba 0 la bb 0 lb in
          let label =
            Printf.sprintf "la=%d lb=%d %s x %s" la lb (width_name wa) (width_name wb)
          in
          Alcotest.(check (array int)) (label ^ " scalar") expect scalar;
          Alcotest.(check (array int)) (label ^ " simd") expect simd)
        widths)
    widths

let test_differential_balanced () =
  let rng = Rng.create 101 in
  for _ = 1 to 40 do
    let la = Rng.int rng 400 and lb = Rng.int rng 400 in
    differential_trial rng ~la ~lb ~density:0.3
  done

let test_differential_skewed () =
  let rng = Rng.create 102 in
  for _ = 1 to 25 do
    (* strongly skewed ratios exercise the galloping kernels *)
    let la = 1 + Rng.int rng 12 and lb = 500 + Rng.int rng 3000 in
    differential_trial rng ~la ~lb ~density:0.5;
    differential_trial rng ~la:lb ~lb:la ~density:0.5
  done

let test_differential_dense_runs () =
  let rng = Rng.create 103 in
  for _ = 1 to 20 do
    let la = 64 + Rng.int rng 512 and lb = 64 + Rng.int rng 512 in
    (* density 0.95: long runs of consecutive integers, near-total overlap *)
    differential_trial rng ~la ~lb ~density:0.95
  done

let test_differential_degenerate () =
  let rng = Rng.create 104 in
  List.iter
    (fun (la, lb) -> differential_trial rng ~la ~lb ~density:0.4)
    [ (0, 0); (0, 5); (5, 0); (1, 1); (1, 1000); (1000, 1); (2, 3) ]

(* Offsets: kernels must respect slice bounds, not touch [0, lo). *)
let test_differential_sub_slices () =
  let rng = Rng.create 105 in
  for _ = 1 to 30 do
    let raw_a = gen_sorted rng ~len:200 ~density:0.4 in
    let raw_b = gen_sorted rng ~len:300 ~density:0.4 in
    let alo = Rng.int rng 100 and blo = Rng.int rng 150 in
    let ahi = alo + Rng.int rng (200 - alo) and bhi = blo + Rng.int rng (300 - blo) in
    List.iter
      (fun wa ->
        List.iter
          (fun wb ->
            let a = Buf.of_int_array ~width:wa raw_a in
            let b = Buf.of_int_array ~width:wb raw_b in
            let expect = naive a alo ahi b blo bhi in
            Alcotest.(check (array int))
              "sub-slice scalar" expect
              (run_kernel Sorted.Scalar a alo ahi b blo bhi);
            Alcotest.(check (array int))
              "sub-slice simd" expect
              (run_kernel Sorted.Simd a alo ahi b blo bhi))
          widths)
      widths
  done

(* Appending onto a non-empty output vector must preserve the prefix (the
   SIMD path writes through raw pointers at an offset). *)
let test_append_preserves_prefix () =
  let rng = Rng.create 106 in
  for _ = 1 to 20 do
    let a = Sorted.of_array (gen_sorted rng ~len:300 ~density:0.6) in
    let ba, _, la = a in
    let b = Sorted.of_array (gen_sorted rng ~len:300 ~density:0.6) in
    let bb, _, lb = b in
    let run mode =
      Sorted.with_kernel_mode mode (fun () ->
          let out = Int_vec.of_array [| -1; -2; -3 |] in
          Sorted.intersect2 out ba 0 la bb 0 lb;
          Int_vec.to_array out)
    in
    let s = run Sorted.Scalar and v = run Sorted.Simd in
    Alcotest.(check (array int)) "prefix + result identical" s v;
    check_int "prefix [0]" (-1) s.(0);
    check_int "prefix [2]" (-3) s.(2)
  done

(* Multiway cascade under both kernels, mixed widths via graph + Int_vec
   intermediates (I64 results against I32 adjacency). *)
let test_multiway_mixed_width () =
  let rng = Rng.create 107 in
  for _ = 1 to 15 do
    let k = 2 + Rng.int rng 4 in
    let slices =
      Array.init k (fun _ ->
          let len = Rng.int rng 300 in
          let w = if Rng.int rng 2 = 0 then `I32 else `I64 in
          let arr = gen_sorted rng ~len ~density:0.7 in
          (Buf.of_int_array ~width:w arr, 0, len))
    in
    let run mode =
      Sorted.with_kernel_mode mode (fun () ->
          let out = Int_vec.create () in
          Sorted.intersect out (Sorted.of_slices slices);
          Int_vec.to_array out)
    in
    let s = run Sorted.Scalar and v = run Sorted.Simd in
    Alcotest.(check (array int)) "k-way scalar = simd" s v
  done

(* ---------- bitmap probe vs merge/gallop ---------- *)

(* k lists of even ids (one "vertex label"), each given, with probability
   3/4, a bitmap row that holds the list plus random odd ids (the other
   labels of a hub's whole adjacency list). The k-way intersection with
   rows must equal the same lists without rows and the quadratic
   reference, under both kernels. One short list and long others make the
   probe fire in most steps; random widths put i32 and i64 lists on both
   sides, and k >= 3 probes the i64 running result. *)
let probe_trial rng ~k =
  let universe = 4096 in
  let words = universe / 64 in
  let arrays =
    Array.init k (fun i ->
        let len = if i = 0 then Rng.int rng 60 else 20 + Rng.int rng 900 in
        Array.init len (fun _ -> 2 * Rng.int rng (universe / 2))
        |> Array.to_list |> List.sort_uniq compare |> Array.of_list)
  in
  let slices =
    Array.map
      (fun a ->
        let w = if Rng.int rng 2 = 0 then `I32 else `I64 in
        (Buf.of_int_array ~width:w a, 0, Array.length a))
      arrays
  in
  let bits = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (k * words) in
  Bigarray.Array1.fill bits 0L;
  let with_rows = Sorted.of_slices ~bits slices in
  Array.iteri
    (fun i a ->
      if Rng.int rng 4 > 0 then begin
        let row = i * words in
        Array.iter (Sorted.mark bits row) a;
        for _ = 1 to Rng.int rng 400 do
          Sorted.mark bits row ((2 * Rng.int rng (universe / 2)) + 1)
        done;
        with_rows.row.(i) <- row
      end)
    arrays;
  let expect =
    Array.fold_left
      (fun acc a -> List.filter (fun x -> Array.mem x a) acc)
      (Array.to_list arrays.(0)) arrays
    |> Array.of_list
  in
  List.iter
    (fun mode ->
      let run l =
        Sorted.with_kernel_mode mode (fun () ->
            let out = Int_vec.create () in
            Sorted.intersect out l;
            Int_vec.to_array out)
      in
      let label what =
        Printf.sprintf "k=%d %s %s" k (Sorted.kernel_mode_to_string mode) what
      in
      Alcotest.(check (array int)) (label "probe = reference") expect (run with_rows);
      Alcotest.(check (array int))
        (label "merge/gallop = reference") expect
        (run (Sorted.of_slices slices)))
    [ Sorted.Scalar; Sorted.Simd ]

let test_probe_differential () =
  let rng = Rng.create 108 in
  for k = 2 to 5 do
    for _ = 1 to 40 do
      probe_trial rng ~k
    done
  done

(* ---------- full-query crosscheck: scalar vs simd ---------- *)

let crosscheck_graph seed =
  let rng = Rng.create seed in
  let n = 300 in
  let vlabel = Array.init n (fun _ -> Rng.int rng 2) in
  let edges =
    Array.init 2400 (fun _ -> (Rng.int rng n, Rng.int rng n, Rng.int rng 2))
  in
  Graph.build ~num_vlabels:2 ~num_elabels:2 ~vlabel ~edges

let test_full_query_crosscheck () =
  let g = crosscheck_graph 201 in
  let db = Gf.Db.create g in
  let queries =
    [
      "a1->a2, a2->a3, a1->a3";
      "a1->a2, a2->a3, a3->a4, a1->a4";
      "a1->a2, a1->a3, a2->a3, a2->a4, a3->a4";
    ]
  in
  List.iter
    (fun qs ->
      let q = Gf.Db.parse_query qs in
      let count mode =
        Sorted.with_kernel_mode mode (fun () -> Gf.Db.count db q)
      in
      let s = count Sorted.Scalar and v = count Sorted.Simd in
      check_int (qs ^ ": scalar = simd matches") s v)
    queries

(* The same crosscheck through a saved-and-mmap'd snapshot: kernel results
   must not depend on whether adjacency is built or mapped. *)
let test_full_query_crosscheck_mmap () =
  let g = crosscheck_graph 202 in
  let path = Filename.temp_file "gfq_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Gf.Graph_io.save_snapshot g path;
      let gm =
        match Gf.Graph_io.load_snapshot_result path with
        | Ok g -> g
        | Error e -> Alcotest.fail (Gf.Graph_io.load_error_to_string e)
      in
      Alcotest.(check bool) "mapped" true (Graph.residency gm).Graph.mapped;
      let q = Gf.Db.parse_query "a1->a2, a2->a3, a1->a3" in
      let run graph mode =
        Sorted.with_kernel_mode mode (fun () ->
            Gf.Db.count (Gf.Db.create graph) q)
      in
      let built = run g Sorted.Scalar in
      check_int "mmap scalar" built (run gm Sorted.Scalar);
      check_int "mmap simd" built (run gm Sorted.Simd))

let test_kernel_mode_plumbing () =
  let saved = Sorted.kernel_mode () in
  Sorted.set_kernel_mode Sorted.Scalar;
  Alcotest.(check string) "scalar name" "scalar" (Sorted.kernel_name ());
  Sorted.with_kernel_mode Sorted.Simd (fun () ->
      Alcotest.(check bool)
        "simd name" true
        (match Sorted.kernel_name () with
        | "simd-avx2" | "simd-sse" | "simd-c-scalar" -> true
        | _ -> false));
  Alcotest.(check string) "mode restored" "scalar"
    (Sorted.kernel_mode_to_string (Sorted.kernel_mode ()));
  Sorted.set_kernel_mode saved;
  (match Sorted.kernel_mode_of_string "simd" with
  | Some Sorted.Simd -> ()
  | _ -> Alcotest.fail "mode_of_string simd");
  let lvl = Sorted.cpu_level () in
  Alcotest.(check bool) "cpu_level in range" true (lvl >= 0 && lvl <= 2)

let suite =
  [
    ( "kernels.differential",
      [
        Alcotest.test_case "balanced" `Quick test_differential_balanced;
        Alcotest.test_case "skewed" `Quick test_differential_skewed;
        Alcotest.test_case "dense runs" `Quick test_differential_dense_runs;
        Alcotest.test_case "degenerate" `Quick test_differential_degenerate;
        Alcotest.test_case "sub-slices" `Quick test_differential_sub_slices;
        Alcotest.test_case "append preserves prefix" `Quick test_append_preserves_prefix;
        Alcotest.test_case "multiway mixed width" `Quick test_multiway_mixed_width;
        Alcotest.test_case "bitmap probe = merge/gallop" `Quick test_probe_differential;
      ] );
    ( "kernels.crosscheck",
      [
        Alcotest.test_case "full queries scalar=simd" `Quick test_full_query_crosscheck;
        Alcotest.test_case "full queries via mmap snapshot" `Quick
          test_full_query_crosscheck_mmap;
        Alcotest.test_case "mode plumbing" `Quick test_kernel_mode_plumbing;
      ] );
  ]
