type weights = { w1 : float; w2 : float }

type features = {
  candidates : float;
  tuples : float;
  intersections : float;
  merged : float;
  galloped : float;
  probed : float;
}

let zero =
  { candidates = 0.0; tuples = 0.0; intersections = 0.0; merged = 0.0; galloped = 0.0; probed = 0.0 }

let to_array f = [| f.candidates; f.tuples; f.intersections; f.merged; f.galloped; f.probed |]

let of_array a =
  {
    candidates = a.(0);
    tuples = a.(1);
    intersections = a.(2);
    merged = a.(3);
    galloped = a.(4);
    probed = a.(5);
  }

let add a b =
  {
    candidates = a.candidates +. b.candidates;
    tuples = a.tuples +. b.tuples;
    intersections = a.intersections +. b.intersections;
    merged = a.merged +. b.merged;
    galloped = a.galloped +. b.galloped;
    probed = a.probed +. b.probed;
  }

let work n (w : Gf_catalog.Catalog.work) =
  { zero with merged = n *. w.merged; galloped = n *. w.galloped; probed = n *. w.probed }

let kernel =
  {
    candidates = 65.0;
    tuples = 14.0;
    intersections = 44.0;
    merged = 1.45;
    galloped = 7.7;
    probed = 0.0;
  }

let default_weights = { w1 = 600.0; w2 = 200.0 }

let price_at k f =
  (k.candidates *. f.candidates)
  +. (k.tuples *. f.tuples)
  +. (k.intersections *. f.intersections)
  +. (k.merged *. f.merged)
  +. (k.galloped *. f.galloped)
  +. (k.probed *. f.probed)

let price f = price_at kernel f

let price_work (w : Gf_catalog.Catalog.work) =
  (kernel.merged *. w.merged) +. (kernel.galloped *. w.galloped) +. (kernel.probed *. w.probed)

(* Gaussian elimination with partial pivoting on the augmented [m] x
   [m + 1] matrix [a]; an unknown without a pivot is 0. *)
let gauss a m =
  for c = 0 to m - 1 do
    let p = ref c in
    for r = c + 1 to m - 1 do
      if Float.abs a.(r).(c) > Float.abs a.(!p).(c) then p := r
    done;
    let t = a.(c) in
    a.(c) <- a.(!p);
    a.(!p) <- t;
    if Float.abs a.(c).(c) > 1e-12 then
      for r = c + 1 to m - 1 do
        let k = a.(r).(c) /. a.(c).(c) in
        for c' = c to m do
          a.(r).(c') <- a.(r).(c') -. (k *. a.(c).(c'))
        done
      done
  done;
  let x = Array.make m 0.0 in
  for c = m - 1 downto 0 do
    if Float.abs a.(c).(c) > 1e-12 then begin
      let s = ref a.(c).(m) in
      for c' = c + 1 to m - 1 do
        s := !s -. (a.(c).(c') *. x.(c'))
      done;
      x.(c) <- !s /. a.(c).(c)
    end
  done;
  x

(* Least squares of relative error, through the origin: each sample's
   features are divided by its nanoseconds, to be priced at 1. Columns
   are scaled to unit norm; the most negative weight's column is dropped
   until no weight is negative. *)
let fit samples =
  let n = Array.length (to_array zero) in
  let rows =
    List.map (fun (f, secs) -> (Array.map (fun x -> x /. (secs *. 1e9)) (to_array f), 1.0)) samples
  in
  let norm =
    Array.init n (fun j -> sqrt (List.fold_left (fun acc (x, _) -> acc +. (x.(j) *. x.(j))) 0.0 rows))
  in
  let rec solve active =
    let idx = Array.of_list (List.filter (fun j -> active.(j)) (List.init n Fun.id)) in
    let m = Array.length idx in
    let a = Array.make_matrix m (m + 1) 0.0 in
    List.iter
      (fun (x, y) ->
        let z = Array.map (fun j -> x.(j) /. norm.(j)) idx in
        for r = 0 to m - 1 do
          for c = 0 to m - 1 do
            a.(r).(c) <- a.(r).(c) +. (z.(r) *. z.(c))
          done;
          a.(r).(m) <- a.(r).(m) +. (z.(r) *. y)
        done)
      rows;
    let w = gauss a m in
    let full = Array.make n 0.0 in
    Array.iteri (fun i j -> full.(j) <- w.(i) /. norm.(j)) idx;
    let worst = ref (-1) in
    Array.iteri (fun j x -> if x < 0.0 && (!worst < 0 || x < full.(!worst)) then worst := j) full;
    if !worst < 0 then full
    else begin
      active.(!worst) <- false;
      solve active
    end
  in
  if samples = [] then kernel else of_array (solve (Array.init n (fun j -> norm.(j) > 0.0)))

let calibrate ~ei ~hj =
  (* Step 1: icost-per-second slope through the origin. *)
  let num = List.fold_left (fun acc (ic, t) -> acc +. (ic *. t)) 0.0 ei in
  let den = List.fold_left (fun acc (_, t) -> acc +. (t *. t)) 0.0 ei in
  if den <= 0.0 || num <= 0.0 then default_weights
  else begin
    let icost_per_sec = num /. den in
    (* Step 2: least squares of w1*n1 + w2*n2 = icost_per_sec * t.
       Normal equations for two variables. *)
    let s11 = ref 0.0 and s12 = ref 0.0 and s22 = ref 0.0 and b1 = ref 0.0 and b2 = ref 0.0 in
    List.iter
      (fun (n1, n2, t) ->
        let y = icost_per_sec *. t in
        s11 := !s11 +. (n1 *. n1);
        s12 := !s12 +. (n1 *. n2);
        s22 := !s22 +. (n2 *. n2);
        b1 := !b1 +. (n1 *. y);
        b2 := !b2 +. (n2 *. y))
      hj;
    let det = (!s11 *. !s22) -. (!s12 *. !s12) in
    let w1 = ((!s22 *. !b1) -. (!s12 *. !b2)) /. det in
    let w2 = ((!s11 *. !b2) -. (!s12 *. !b1)) /. det in
    if Float.abs det >= 1e-9 && w1 > 0.0 && w2 > 0.0 then { w1; w2 }
    else begin
      (* Samples that hash about as many tuples as they probe cannot tell
         w1 from w2: keep the defaults' ratio r and fit the scale,
         w2 * (r * n1 + n2) = y. *)
      let r = default_weights.w1 /. default_weights.w2 in
      let num = (r *. !b1) +. !b2 and den = (r *. r *. !s11) +. (2.0 *. r *. !s12) +. !s22 in
      if den > 0.0 && num > 0.0 then { w1 = r *. num /. den; w2 = num /. den } else default_weights
    end
  end
