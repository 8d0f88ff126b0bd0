module Key = struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash (a : int array) = Hashtbl.hash a
end

module H = Hashtbl.Make (Key)

type t = {
  rows : Gf_util.Int_vec.t; (* concatenated rows, stride row_len *)
  index : Gf_util.Int_vec.t H.t; (* key -> row start offsets *)
  key_len : int;
  row_len : int;
  view : int array; (* reusable row view for [absorb]'s iteration *)
  mutable count : int;
}

let create ~key_len ~row_len =
  {
    rows = Gf_util.Int_vec.create ~capacity:1024 ();
    index = H.create 1024;
    key_len;
    row_len;
    view = Array.make (max row_len 1) 0;
    count = 0;
  }

let add t key row =
  assert (Array.length key = t.key_len && Array.length row = t.row_len);
  let start = Gf_util.Int_vec.length t.rows in
  Gf_util.Int_vec.push_array t.rows row 0 t.row_len;
  (match H.find_opt t.index key with
  | Some offsets -> Gf_util.Int_vec.push offsets start
  | None ->
      let offsets = Gf_util.Int_vec.create ~capacity:4 () in
      Gf_util.Int_vec.push offsets start;
      H.replace t.index (Array.copy key) offsets);
  t.count <- t.count + 1

let size t = t.count
let row_len t = t.row_len
let key_len t = t.key_len

(* Approximate heap cost of one stored row: the row words, one offset word
   in the index bucket, and a word of amortized hashtable overhead. *)
let bytes_per_row t = (t.row_len + 2) * 8

let iter_matches_view t ~view key f =
  match H.find_opt t.index key with
  | None -> ()
  | Some offsets ->
      Gf_util.Int_vec.iter
        (fun start ->
          Gf_util.Int_vec.blit_to_array t.rows start view 0 t.row_len;
          f view)
        offsets

let iter_rows t f =
  H.iter
    (fun key offsets ->
      Gf_util.Int_vec.iter
        (fun start ->
          Gf_util.Int_vec.blit_to_array t.rows start t.view 0 t.row_len;
          f key t.view)
        offsets)
    t.index

let absorb dst src =
  if dst.key_len <> src.key_len || dst.row_len <> src.row_len then
    invalid_arg "Join_table.absorb: shape mismatch";
  iter_rows src (fun key row -> add dst key row)
