(* Order statistics for latency samples and run-to-run spreads. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.

(* Samples strictly beyond the nearest-rank [p]th percentile of [n]. *)
let beyond ~n p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

(* The tail a sample supports: the highest of p99/p95/p90 with at least
   ten samples beyond it (p90 when even that is short). *)
let tail_percentile n =
  match List.find_opt (fun p -> beyond ~n p >= 10) [ 99.; 95.; 90. ] with
  | Some p -> p
  | None -> 90.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them (the
   default "exclusive" method), so spreads printed here match the ones the
   benchmark contract is checked with. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let sum xs = Array.fold_left ( +. ) 0. xs
