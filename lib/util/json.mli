(** The one JSON codec: a value type, a Buffer printer and a strict parser.
    Every wire reply, span payload and client read goes through it.

    Printing escapes the double quote, the backslash, newline (as [\n])
    and every other byte below 0x20 (as [\u00XX]); bytes from 0x80 up pass
    through unchanged, so a printed value is always one line. Non-finite
    floats print as [null]. Finite floats print with 15 significant
    digits, or 17 when 15 do not read back exactly, always with a ['.'] or
    an exponent, so [parse (to_string v) = Ok v] for every value without
    NaN or an infinity. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** keys in print order *)

val to_string : t -> string

(** The body of a JSON string literal for [s], without the quotes. *)
val escape : string -> string

(** [decimals d x] is [Float x] rounded to [d] decimal places: the
    resolution a reply field reports ([decimals 6] for seconds keeps
    microseconds). *)
val decimals : int -> float -> t

(** Strict RFC 8259 parsing of one value with optional surrounding
    whitespace: trailing data, unterminated strings, raw control bytes in
    strings, and leading or trailing commas are errors. Integers that fit
    an OCaml [int] read as [Int], other numbers as [Float]. [\uXXXX]
    escapes below 0x80 read as that byte, others as UTF-8. The error names
    the byte offset. *)
val parse : string -> (t, string) result

(** [member k v] is the value of key [k] in object [v] — its top level
    only, never a nested object; the first one if [k] repeats. [None] when
    [v] is not an object or lacks [k]. *)
val member : string -> t -> t option

(** [member] narrowed to one type; [None] (or [[]]) when the key is absent
    or holds another type. [float] also accepts an [Int]. *)

val int : string -> t -> int option
val float : string -> t -> float option
val str : string -> t -> string option
val bool : string -> t -> bool option
val list : string -> t -> t list
