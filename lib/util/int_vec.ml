(* Stdlib.min/max are polymorphic: on ints every call is a C compare. *)
let[@warning "-32"] min = Int.min and[@warning "-32"] max = Int.max

(* [tagged] is [Buf.I64 data], rebuilt only when [data] grows, so handing
   the running result of a k-way intersection to the next pairwise kernel
   allocates nothing. *)
type t = { mutable data : Buf.i64a; mutable tagged : Buf.t; mutable len : int }

let create ?(capacity = 16) () =
  let data = Buf.alloc_i64 (max capacity 1) in
  { data; tagged = Buf.I64 data; len = 0 }

let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Int_vec.get";
  Bigarray.Array1.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Int_vec.set";
  Bigarray.Array1.unsafe_set v.data i x

let unsafe_get v i = Bigarray.Array1.unsafe_get v.data i

let ensure v n =
  if n > Bigarray.Array1.dim v.data then begin
    let cap = ref (Bigarray.Array1.dim v.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Buf.alloc_i64 !cap in
    if v.len > 0 then
      Bigarray.Array1.blit
        (Bigarray.Array1.sub v.data 0 v.len)
        (Bigarray.Array1.sub data 0 v.len);
    v.data <- data;
    v.tagged <- Buf.I64 data
  end

let push v x =
  ensure v (v.len + 1);
  Bigarray.Array1.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let clear v = v.len <- 0
let is_empty v = v.len = 0
let big v = v.data
let buf v = v.tagged
let unsafe_set_len v n = v.len <- n

let to_array v = Array.init v.len (fun i -> Bigarray.Array1.unsafe_get v.data i)

let of_array a =
  let v = create ~capacity:(max 1 (Array.length a)) () in
  for i = 0 to Array.length a - 1 do
    Bigarray.Array1.unsafe_set v.data i a.(i)
  done;
  v.len <- Array.length a;
  v

let iter f v =
  for i = 0 to v.len - 1 do
    f (Bigarray.Array1.unsafe_get v.data i)
  done

let fold_left f init v =
  let acc = ref init in
  for i = 0 to v.len - 1 do
    acc := f !acc (Bigarray.Array1.unsafe_get v.data i)
  done;
  !acc

let push_array dst a lo hi =
  let n = hi - lo in
  if n > 0 then begin
    ensure dst (dst.len + n);
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set dst.data (dst.len + i) a.(lo + i)
    done;
    dst.len <- dst.len + n
  end

let push_buf dst b lo hi =
  let n = hi - lo in
  if n > 0 then begin
    ensure dst (dst.len + n);
    (match b with
    | Buf.I64 src ->
        Bigarray.Array1.blit
          (Bigarray.Array1.sub src lo n)
          (Bigarray.Array1.sub dst.data dst.len n)
    | Buf.I32 src ->
        for i = 0 to n - 1 do
          Bigarray.Array1.unsafe_set dst.data (dst.len + i)
            (Int32.to_int (Bigarray.Array1.unsafe_get src (lo + i)))
        done);
    dst.len <- dst.len + n
  end

let append dst src = push_buf dst src.tagged 0 src.len

let pp fmt v =
  Format.fprintf fmt "[@[";
  for i = 0 to v.len - 1 do
    if i > 0 then Format.fprintf fmt ";@ ";
    Format.fprintf fmt "%d" (Bigarray.Array1.unsafe_get v.data i)
  done;
  Format.fprintf fmt "@]]"
