(* Stdlib.min/max are polymorphic: on ints every call is a C compare. *)
let[@warning "-32"] min = Int.min and[@warning "-32"] max = Int.max

type i32a = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type i64a = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = I32 of i32a | I64 of i64a

let alloc_i32 n : i32a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n
let alloc_i64 n : i64a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let empty : t = I64 (alloc_i64 0)

(* int32 adjacency iff every stored value fits; the threshold is a value
   bound, not a length bound, because adjacency stores vertex ids. *)
let i32_max = 0x7fffffff

let alloc ~max_value n =
  if max_value <= i32_max then I32 (alloc_i32 n) else I64 (alloc_i64 n)

let length = function
  | I32 a -> Bigarray.Array1.dim a
  | I64 a -> Bigarray.Array1.dim a

let width_bytes = function I32 _ -> 4 | I64 _ -> 8
let bytes t = length t * width_bytes t

let unsafe_get t i =
  match t with
  | I32 a -> Int32.to_int (Bigarray.Array1.unsafe_get a i)
  | I64 a -> Bigarray.Array1.unsafe_get a i

let get t i =
  if i < 0 || i >= length t then invalid_arg "Buf.get";
  unsafe_get t i

let unsafe_set t i x =
  match t with
  | I32 a -> Bigarray.Array1.unsafe_set a i (Int32.of_int x)
  | I64 a -> Bigarray.Array1.unsafe_set a i x

let set t i x =
  if i < 0 || i >= length t then invalid_arg "Buf.set";
  match t with
  | I32 a ->
      if x < 0 || x > i32_max then invalid_arg "Buf.set: value exceeds int32";
      Bigarray.Array1.unsafe_set a i (Int32.of_int x)
  | I64 a -> Bigarray.Array1.unsafe_set a i x

let of_int_array ?(width = `Auto) a =
  let n = Array.length a in
  let max_v = Array.fold_left max 0 a in
  let use_i32 =
    match width with `I32 -> true | `I64 -> false | `Auto -> max_v <= i32_max
  in
  if use_i32 then begin
    let b = alloc_i32 n in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set b i (Int32.of_int a.(i))
    done;
    I32 b
  end
  else begin
    let b = alloc_i64 n in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set b i a.(i)
    done;
    I64 b
  end

let sub_array t lo hi =
  if lo < 0 || hi > length t || lo > hi then invalid_arg "Buf.sub_array";
  Array.init (hi - lo) (fun i -> unsafe_get t (lo + i))


let iter_range f t lo hi =
  match t with
  | I32 a ->
      for i = lo to hi - 1 do
        f (Int32.to_int (Bigarray.Array1.unsafe_get a i))
      done
  | I64 a ->
      for i = lo to hi - 1 do
        f (Bigarray.Array1.unsafe_get a i)
      done
