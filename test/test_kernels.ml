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
let check_bool = Alcotest.(check bool)

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

(* ---------- run kernel vs per-candidate intersect ---------- *)

(* A labeled random graph whose first few vertices are hubs (so the
   longest lists get bitmap rows), with int32 adjacency, or with the same
   lists widened to int64 and the graph rebuilt around them. *)
let run_graph rng ~wide =
  let n = 1_200 in
  let vlabel = Array.init n (fun _ -> Rng.int rng 2) in
  let edges =
    Array.init 9_000 (fun i ->
        let src = if i mod 3 = 0 then Rng.int rng 6 else Rng.int rng n in
        (src, Rng.int rng n, Rng.int rng 2))
  in
  let g = Graph.build ~num_vlabels:2 ~num_elabels:2 ~vlabel ~edges in
  if not wide then g
  else begin
    let raw = Graph.to_raw g in
    let widen b = Buf.of_int_array ~width:`I64 (Buf.sub_array b 0 (Buf.length b)) in
    match Graph.of_raw { raw with fwd_nbr = widen raw.fwd_nbr; bwd_nbr = widen raw.bwd_nbr } with
    | Ok g -> g
    | Error e -> failwith e
  end

let random_dir rng = if Rng.int rng 2 = 0 then Graph.Fwd else Graph.Bwd

(* One trial: [ns] stable lists (hubs among their sources) intersected
   into the shared set, [nv] varying lists, and [len] candidates, checked
   against {!Sorted.intersect} per candidate, enumerating and counting,
   under both kernels. A small [giant] makes the kernel leave long lists
   outside it; those candidates go through [run_lists], as the E/I
   operator takes them. *)
let run_trial rng g ~rows ~ns ~nv ~len ~source =
  let n = Graph.num_vertices g in
  let tl = Rng.int rng 2 in
  let bits = if rows then Some (Graph.bitmap_words g) else None in
  let sources =
    Array.init ns (fun _ ->
        let v = if Rng.int rng 2 = 0 then Rng.int rng 6 else Rng.int rng n in
        (random_dir rng, v, Rng.int rng 2))
  in
  let stable = Array.map (fun (d, v, elabel) -> Graph.neighbours g d v ~elabel ~nlabel:tl) sources in
  let sl = Sorted.of_slices stable in
  let shared = Int_vec.create () in
  Sorted.intersect shared sl;
  let vary =
    Array.init nv (fun _ -> Graph.csr g (random_dir rng) ~elabel:(Rng.int rng 2) ~nlabel:tl)
  in
  let cands =
    match source with
    | `Slice ->
        (* A hub's adjacency slice, cut to [len] when it is longer. *)
        let b, lo, hi = Graph.neighbours g Graph.Fwd (Rng.int rng 6) ~elabel:0 ~nlabel:(1 - tl) in
        (b, lo, min hi (lo + len))
    | `Vec | `Distinct ->
        let c = Array.init len (fun _ -> Rng.int rng n) |> Array.to_list |> List.sort_uniq compare in
        (* [`Distinct]: the candidates an E/I hands on under [distinct],
           a bound prefix's vertices left out. *)
        let prefix = if source = `Distinct then List.filteri (fun i _ -> i mod 7 = 3) c else [] in
        let v = Int_vec.of_array (Array.of_list (List.filter (fun x -> not (List.mem x prefix)) c)) in
        (Int_vec.buf v, 0, Int_vec.length v)
  in
  let cb, clo, chi = cands in
  let expect =
    Array.init (chi - clo) (fun i ->
        let c = Buf.get cb (clo + i) in
        let lists =
          Array.append stable
            (Array.map
               (fun (v : Sorted.csr) ->
                 let x = (c * v.stride) + v.base in
                 (v.nbr, Bigarray.Array1.get v.off x, Bigarray.Array1.get v.off (x + 1)))
               vary)
        in
        let out = Int_vec.create () in
        Sorted.intersect out (Sorted.of_slices lists);
        Int_vec.to_array out)
  in
  let icost_expect =
    Array.fold_left
      (fun acc (v : Sorted.csr) ->
        let t = ref acc in
        for i = clo to chi - 1 do
          let x = (Buf.get cb i * v.stride) + v.base in
          t := !t + Bigarray.Array1.get v.off (x + 1) - Bigarray.Array1.get v.off x
        done;
        !t)
      0 vary
  in
  List.iter
    (fun mode ->
      Sorted.with_kernel_mode mode (fun () ->
          let scratch = (Int_vec.create (), Int_vec.create ()) in
          let r =
            Sorted.run_state ?bits ~scratch ~cache:false ~source:(if ns > 0 then Fixed else Absent) vary
          in
          if ns = 1 then begin
            (* The one stable list in place, with its row. *)
            let l = Sorted.lists ?bits 1 in
            let d, v, elabel = sources.(0) in
            Graph.neighbours_into g d v ~elabel ~nlabel:tl l 0;
            Sorted.set_shared r l.bufs.(0) l.lo.(0) l.hi.(0) l.row.(0)
          end
          else if ns > 1 then Sorted.set_shared r (Int_vec.buf shared) 0 (Int_vec.length shared) (-1);
          (* The candidates as a group of one run. *)
          let grp =
            { Sorted.tuple = [| 0; 0 |]; cands = cb; keys = [| 0 |]; starts = [| clo |]; ends = [| chi |];
              first = 0; last = 1; lo = clo; hi = chi }
          in
          List.iter
            (fun count ->
              let giant = if Rng.int rng 3 = 0 then 40 else max_int in
              let got = ref [] and sizes = ref [] and icost = ref 0 in
              let out = Int_vec.create () in
              Sorted.seek r ~j:0 ~i:clo ~stop:1;
              while r.Sorted.j < 1 do
                let k = Sorted.run_kernel ~count ~giant r out grp in
                check_int "a chunk at most" 0 (if k > Sorted.run_chunk then k else 0);
                icost := !icost + r.Sorted.icost;
                if r.Sorted.outside then begin
                  let i = r.Sorted.i in
                  let c = Buf.get cb i in
                  let o = Int_vec.create () in
                  Sorted.intersect o (Sorted.run_lists r grp 0 c);
                  got := Int_vec.to_array o :: !got;
                  sizes := Int_vec.length o :: !sizes;
                  Sorted.seek r ~j:0 ~i:(i + 1) ~stop:1
                end
                else begin
                  for j = 0 to k - 1 do
                    let s = r.Sorted.starts.(j) and e = r.Sorted.ends.(j) in
                    sizes := (e - s) :: !sizes;
                    if not count then got := Array.init (e - s) (fun x -> Int_vec.get out (s + x)) :: !got
                  done
                end
              done;
              let label what =
                Printf.sprintf "%s ns=%d nv=%d len=%d rows=%b %s %s" (Sorted.kernel_mode_to_string mode)
                  ns nv (chi - clo) rows (if count then "count" else "enum") what
              in
              Alcotest.(check (list int))
                (label "sizes") (Array.to_list (Array.map Array.length expect)) (List.rev !sizes);
              if not count then
                Alcotest.(check (list (array int))) (label "sets") (Array.to_list expect) (List.rev !got);
              check_int (label "icost") icost_expect !icost)
            [ false; true ]))
    [ Sorted.Scalar; Sorted.Simd ]

let test_run_kernel_differential () =
  let rng = Rng.create 125 in
  List.iter
    (fun wide ->
      let g = run_graph rng ~wide in
      check_int "adjacency width" (if wide then 8 else 4) (Graph.residency g).Graph.nbr_width;
      check_bool "hub rows" true ((Graph.residency g).Graph.row_bytes > 0);
      List.iter
        (fun ns ->
          List.iter
            (fun nv ->
              List.iter
                (fun len ->
                  List.iter
                    (fun source ->
                      List.iter
                        (fun rows -> run_trial rng g ~rows ~ns ~nv ~len ~source)
                        [ true; false ])
                    [ `Slice; `Vec; `Distinct ])
                [ 1; 63; 64; 65; 1_000 ])
            [ 1; 2 ])
        [ 0; 1; 2; 3 ])
    [ false; true ]

(* What the group trials covered, checked once they are done. *)
let seen_hits = ref 0 and seen_giants = ref 0 and seen_spans = ref 0 and seen_empty = ref 0

(* One group trial: [nruns] sibling runs in one candidate buffer, each
   run's shared set from [source] — its own whole slice ([Own]) or its
   key's list in a keyed CSR, with the row ([Key]) — through as many
   {!Sorted.run_kernel} calls as the kernel wants, the candidates it
   leaves outside taken through [run_lists] as the E/I operator takes
   them. [nk] stable lists are sourced from the key column. Some runs
   are empty, some repeat the previous run's key and start on its last
   candidate (a cache hit across runs), the group is cut inside its first
   and last run, a small [giant] sends some candidates outside the
   kernel, and a group of more than 64 candidates spans several calls.
   Checked against a tuple-at-a-time reference: every result set, and the
   charged intersections, their cost, the cache hits and the [Key] set
   ticks. *)
let group_trial ?nk rng g ~rows ~source ~nv ~nruns =
  let n = Graph.num_vertices g in
  let tl = Rng.int rng 2 in
  let bits = if rows then Some (Graph.bitmap_words g) else None in
  let csr () = Graph.csr g (random_dir rng) ~elabel:(Rng.int rng 2) ~nlabel:tl in
  let vary = Array.init nv (fun _ -> csr ()) in
  let nk =
    match nk with
    | Some k -> k
    | None -> if source = Sorted.Key then 1 else 1 + Rng.int rng 2
  in
  let keyed = Array.init nk (fun _ -> csr ()) in
  let slice (v : Sorted.csr) c =
    let x = (c * v.stride) + v.base in
    (v.nbr, Bigarray.Array1.get v.off x, Bigarray.Array1.get v.off (x + 1))
  in
  (* Runs: a key (a hub now and then) and sorted candidates. *)
  let runs =
    let last = ref (0, []) in
    List.init nruns (fun j ->
        let key, prev_c =
          match !last with
          | k, (_ :: _ as cs) when j > 0 && Rng.int rng 3 = 0 -> (k, Some (List.nth cs (List.length cs - 1)))
          | _ -> ((if Rng.int rng 3 = 0 then Rng.int rng 6 else Rng.int rng n), None)
        in
        let len = if Rng.int rng 4 = 0 then 0 else 1 + Rng.int rng 9 in
        (* An [Own] run is an extension set: all of the target label, as a
           bitmap row probe of it assumes. *)
        let cs =
          List.sort_uniq compare
            (List.init len (fun _ -> if Rng.int rng 5 = 0 then Rng.int rng 6 else Rng.int rng n))
          |> List.filter (fun c -> source = Sorted.Key || Graph.vlabel g c = tl)
        in
        let cs =
          match prev_c with
          | Some p -> p :: List.filter (fun c -> c > p) cs
          | None -> cs
        in
        last := (key, cs);
        (key, cs))
  in
  let all = List.concat_map snd runs in
  let cands = Buf.of_int_array ~width:(if Rng.bool rng then `I32 else `I64) (Array.of_list all) in
  let keys = Array.of_list (List.map fst runs) in
  let starts = Array.make nruns 0 and ends = Array.make nruns 0 in
  let pos = ref 0 in
  List.iteri
    (fun j (_, cs) ->
      starts.(j) <- !pos;
      pos := !pos + List.length cs;
      ends.(j) <- !pos)
    runs;
  (* Cut the first and last run when they have room. *)
  let lo = if ends.(0) - starts.(0) >= 2 then starts.(0) + 1 else starts.(0) in
  let hi = if ends.(nruns - 1) - starts.(nruns - 1) >= 2 then ends.(nruns - 1) - 1 else ends.(nruns - 1) in
  let grp =
    { Sorted.tuple = [| 0; 0 |]; cands; keys; starts; ends; first = 0; last = nruns; lo; hi }
  in
  for j = 1 to nruns - 2 do
    if starts.(j) = ends.(j) then incr seen_empty
  done;
  let s_total = Rng.int rng 50 in
  (* The tuple-at-a-time reference. *)
  let expect = ref [] and charged = ref 0 and icost = ref 0 and hits = ref 0 and ticks = ref 0 in
  let prev = ref None in
  for j = 0 to nruns - 1 do
    let key = keys.(j) in
    let s =
      match source with
      | Sorted.Own -> (cands, starts.(j), ends.(j))
      | _ -> slice keyed.(0) key
    in
    let stable = s_total + Array.fold_left (fun acc v -> acc + Sorted.slice_len (slice v key)) 0 keyed in
    for i = Sorted.run_lo grp j to Sorted.run_hi grp j - 1 do
      let c = Buf.get cands i in
      let vl = Array.map (fun v -> slice v c) vary in
      let out = Int_vec.create () in
      Sorted.intersect out (Sorted.of_slices (Array.append [| s |] vl));
      expect := (c, Int_vec.to_array out) :: !expect;
      let same = match !prev with Some (k, _) -> k = key | None -> false in
      if same && snd (Option.get !prev) = c then incr hits
      else begin
        incr charged;
        icost := !icost + stable + Array.fold_left (fun acc l -> acc + Sorted.slice_len l) 0 vl
      end;
      if (not same) && source = Sorted.Key then ticks := !ticks + (Sorted.slice_len s asr 8);
      prev := Some (key, c)
    done
  done;
  let expect = List.rev !expect in
  List.iter
    (fun mode ->
      Sorted.with_kernel_mode mode (fun () ->
          List.iter
            (fun count ->
              let scratch = (Int_vec.create (), Int_vec.create ()) in
              let r = Sorted.run_state ?bits ~scratch ~keyed ~cache:true ~source vary in
              Sorted.set_total r s_total;
              let giant = if Rng.int rng 3 = 0 then 3 else max_int in
              let got = ref [] and c_charged = ref 0 and c_icost = ref 0 and c_hits = ref 0 in
              let c_ticks = ref 0 in
              let out = Int_vec.create () in
              Sorted.seek r ~j:0 ~i:lo ~stop:nruns;
              while r.Sorted.j < nruns do
                let j0 = r.Sorted.j in
                let k = Sorted.run_kernel ~count ~giant r out grp in
                check_int "a chunk at most" 0 (if k > Sorted.run_chunk then k else 0);
                if k > 0 && r.Sorted.j > j0 + 1 then incr seen_spans;
                c_charged := !c_charged + r.Sorted.charged;
                c_icost := !c_icost + r.Sorted.icost;
                c_hits := !c_hits + r.Sorted.hits;
                c_ticks := !c_ticks + r.Sorted.ticks;
                if k > 0 then begin
                  for q = 0 to k - 1 do
                    let s = r.Sorted.starts.(q) and e = r.Sorted.ends.(q) in
                    got :=
                      ( r.Sorted.keys.(q),
                        if count then Array.make (e - s) 0
                        else Array.init (e - s) (fun x -> Int_vec.get out (s + x)) )
                      :: !got
                  done
                end
                else if r.Sorted.outside then begin
                  (* Outside the kernel, already counted, as the E/I
                     operator goes. *)
                  let j = r.Sorted.j and i = r.Sorted.i in
                  check_bool "stopped on a candidate" true (i < Sorted.run_hi grp j);
                  incr seen_giants;
                  let c = Buf.get cands i in
                  let o = Int_vec.create () in
                  Sorted.intersect o (Sorted.run_lists r grp j c);
                  got := (c, if count then Array.make (Int_vec.length o) 0 else Int_vec.to_array o) :: !got;
                  Sorted.seek r ~j ~i:(i + 1) ~stop:nruns
                end
                else check_int "stopped at the last run" nruns r.Sorted.j
              done;
              let label what =
                Printf.sprintf "%s %s nv=%d nk=%d runs=%d rows=%b giant=%d %s %s"
                  (Sorted.kernel_mode_to_string mode)
                  (if source = Sorted.Own then "own" else "key")
                  nv nk nruns rows giant (if count then "count" else "enum") what
              in
              let got = List.rev !got in
              Alcotest.(check (list int)) (label "candidates") (List.map fst expect) (List.map fst got);
              Alcotest.(check (list int))
                (label "sizes")
                (List.map (fun (_, a) -> Array.length a) expect)
                (List.map (fun (_, a) -> Array.length a) got);
              if not count then Alcotest.(check (list (array int))) (label "sets") (List.map snd expect) (List.map snd got);
              check_int (label "intersections") !charged !c_charged;
              check_int (label "icost") !icost !c_icost;
              check_int (label "cache hits") !hits !c_hits;
              seen_hits := !seen_hits + !c_hits;
              check_int (label "ticks") !ticks !c_ticks)
            [ false; true ]))
    [ Sorted.Scalar; Sorted.Simd ]

let test_run_kernel_groups () =
  let rng = Rng.create 127 in
  List.iter
    (fun wide ->
      let g = run_graph rng ~wide in
      List.iter
        (fun source ->
          List.iter
            (fun nruns ->
              for _ = 1 to 6 do
                List.iter (fun rows -> group_trial rng g ~rows ~source ~nv:(1 + Rng.int rng 2) ~nruns) [ true; false ]
              done)
            [ 1; 2; 7; 40 ])
        [ Sorted.Own; Sorted.Key ];
      (* More lists than the C kernel keeps on its stack: 17 key-column
         lists, which it only measures, and 16 varying lists besides
         [S], which leave every candidate outside it. *)
      List.iter
        (fun source ->
          List.iter (fun nv -> group_trial ~nk:17 rng g ~rows:true ~source ~nv ~nruns:7) [ 1; 16 ])
        [ Sorted.Own; Sorted.Key ])
    [ false; true ];
  check_bool "cache hits across runs" true (!seen_hits > 0);
  check_bool "candidates outside the kernel" true (!seen_giants > 0);
  check_bool "calls across runs" true (!seen_spans > 0);
  check_bool "empty runs inside groups" true (!seen_empty > 0)

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
        Alcotest.test_case "run kernel = per-candidate intersect" `Quick
          test_run_kernel_differential;
        Alcotest.test_case "run kernel groups = tuple at a time" `Quick test_run_kernel_groups;
      ] );
    ( "kernels.crosscheck",
      [
        Alcotest.test_case "full queries scalar=simd" `Quick test_full_query_crosscheck;
        Alcotest.test_case "full queries via mmap snapshot" `Quick
          test_full_query_crosscheck_mmap;
        Alcotest.test_case "mode plumbing" `Quick test_kernel_mode_plumbing;
      ] );
  ]
