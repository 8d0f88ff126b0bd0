module Int_vec = Gf_util.Int_vec

type t = {
  rows : Int_vec.t; (* build rows, stride row_len; grouped by bucket once indexed *)
  key_pos : int array; (* a row's key columns *)
  row_len : int;
  mutable starts : int array; (* bucket b's rows are [starts.(b), starts.(b + 1)) *)
  mutable mask : int; (* buckets - 1; -1 until [index] *)
}

let create ~key_pos ~row_len =
  { rows = Int_vec.create ~capacity:1024 (); key_pos; row_len; starts = [||]; mask = -1 }

(* The row words, one destination word per row while [index] permutes, and
   at most one bucket start per row. *)
let bytes_per_row t = (t.row_len + 2) * 8

let add t row = Int_vec.push_array t.rows row 0 t.row_len
let append dst src = Int_vec.append dst.rows src.rows
let get t off col = Int_vec.unsafe_get t.rows (off + col)

(* One multiply-xor round per key column and a final fold of the high bits
   into the low ones, which the bucket mask keeps. *)
let mix h v = (h lxor v) * 0x2545F4914F6CDD1D
let finish h = h lxor (h lsr 29)

let bucket_of_row t off =
  let h = ref 0 in
  for i = 0 to Array.length t.key_pos - 1 do
    h := mix !h (get t off t.key_pos.(i))
  done;
  finish !h land t.mask

(* A counting sort of the rows by bucket, stable so each key's rows keep
   their insertion order, applied in place by following the permutation's
   cycles: a probe then scans one contiguous run of rows. *)
let index t =
  let rl = t.row_len in
  let n = Int_vec.length t.rows / rl in
  (* The largest power of two <= max n 1: at most one start per row. *)
  let buckets = ref 1 in
  while !buckets * 2 <= n do
    buckets := !buckets * 2
  done;
  t.mask <- !buckets - 1;
  let starts = Array.make (!buckets + 1) 0 in
  let dest = Array.make n 0 in
  for r = 0 to n - 1 do
    let b = bucket_of_row t (r * rl) in
    dest.(r) <- b;
    starts.(b + 1) <- starts.(b + 1) + 1
  done;
  for b = 1 to !buckets do
    starts.(b) <- starts.(b) + starts.(b - 1)
  done;
  (* [starts.(b)] runs through bucket [b]'s slots, ending at its successor's
     start; shifting by one restores the starts. *)
  for r = 0 to n - 1 do
    let b = dest.(r) in
    dest.(r) <- starts.(b);
    starts.(b) <- starts.(b) + 1
  done;
  for b = !buckets downto 1 do
    starts.(b) <- starts.(b - 1)
  done;
  starts.(0) <- 0;
  let a = Int_vec.big t.rows in
  for r = 0 to n - 1 do
    while dest.(r) <> r do
      let d = dest.(r) in
      for c = 0 to rl - 1 do
        let x = Bigarray.Array1.unsafe_get a ((r * rl) + c) in
        Bigarray.Array1.unsafe_set a ((r * rl) + c) (Bigarray.Array1.unsafe_get a ((d * rl) + c));
        Bigarray.Array1.unsafe_set a ((d * rl) + c) x
      done;
      dest.(r) <- dest.(d);
      dest.(d) <- d
    done
  done;
  t.starts <- starts

let iter_matches t tuple pos f =
  if t.mask < 0 then invalid_arg "Join_table.iter_matches: table not indexed";
  let nk = Array.length pos in
  let h = ref 0 in
  for i = 0 to nk - 1 do
    h := mix !h tuple.(pos.(i))
  done;
  let b = finish !h land t.mask in
  for r = t.starts.(b) to t.starts.(b + 1) - 1 do
    let off = r * t.row_len in
    let i = ref 0 in
    while !i < nk && get t off t.key_pos.(!i) = tuple.(pos.(!i)) do
      incr i
    done;
    if !i = nk then f off
  done
