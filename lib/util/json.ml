type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printer ----------------------------------------------------------- *)

let add_escaped b s =
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring b s !start (i - !start);
      Buffer.add_string b
        (match c with
        | '"' -> "\\\""
        | '\\' -> "\\\\"
        | '\n' -> "\\n"
        | c -> Printf.sprintf "\\u%04x" (Char.code c));
      start := i + 1
    end
  done;
  Buffer.add_substring b s !start (String.length s - !start)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

(* The runtime's formatter, without Printf's format interpretation: a
   reply prints two or three floats, and this halves their cost. *)
external format_float : string -> float -> string = "caml_format_float"

(* JSON has no literal for NaN or the infinities; [null] is the only one
   every reader accepts. Finite values print with 15 significant digits,
   or 17 when 15 do not read back to the same float, and always with a '.'
   or an exponent so they never read back as an [Int]. *)

let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else begin
    let s = format_float "%.15g" f in
    let s = if float_of_string s = f then s else format_float "%.17g" f in
    Buffer.add_string b s;
    if not (String.exists (fun c -> c = '.' || c = 'e') s) then Buffer.add_string b ".0"
  end

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | Str s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          add_escaped b k;
          Buffer.add_string b "\":";
          write b v)
        kv;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

let decimals d x =
  let scale = 10. ** float_of_int d in
  Float (Float.round (x *. scale) /. scale)

(* --- parser ------------------------------------------------------------ *)

exception Syntax of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Syntax (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) then begin
      incr pos;
      skip ()
    end
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v) else fail "bad literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "bad \\u escape";
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d
    done;
    pos := !pos + 4;
    !v
  in
  let string_lit () =
    expect '"';
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' && s.[!pos] >= ' ' do incr pos done;
    if !pos < n && s.[!pos] = '"' then (incr pos; String.sub s start (!pos - 1 - start))
    else begin
      (* Slow path from the first escape (or error) on. *)
      let b = Buffer.create 16 in
      Buffer.add_substring b s start (!pos - start);
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        match c with
        | '"' -> ()
        | '\\' ->
            if !pos >= n then fail "unterminated string";
            let e = s.[!pos] in
            incr pos;
            (match e with
            | '"' | '\\' | '/' -> Buffer.add_char b e
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' -> (
                let code = hex4 () in
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else
                  match Uchar.of_int code with
                  | u -> Buffer.add_utf_8_uchar b u
                  | exception Invalid_argument _ -> fail "surrogate \\u escape")
            | _ -> fail "bad escape");
            go ()
        | c when Char.code c < 0x20 -> fail "control character in string"
        | c ->
            Buffer.add_char b c;
            go ()
      in
      go ();
      Buffer.contents b
    end
  in
  (* An optional minus, then 0 or digits without a leading zero, then an
     optional fraction and an optional exponent. *)
  let number () =
    let start = !pos in
    let digits () =
      let d = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
      if !pos = d then fail "bad number"
    in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    let frac = peek () = '.' in
    if frac then (incr pos; digits ());
    let exp = peek () = 'e' || peek () = 'E' in
    if exp then begin
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    match if frac || exp then None else int_of_string_opt lit with
    | Some i -> Int i
    | None -> Float (float_of_string lit)
  in
  let rec value () =
    skip ();
    match peek () with
    | _ when !pos >= n -> fail "unexpected end"
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            skip ();
            let k = string_lit () in
            skip ();
            expect ':';
            let v = value () in
            skip ();
            if peek () = ',' then (incr pos; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if peek () = ',' then (incr pos; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match value () with
  | v ->
      skip ();
      if !pos <> n then Error (Printf.sprintf "trailing data at byte %d" !pos) else Ok v
  | exception Syntax (p, msg) -> Error (Printf.sprintf "%s at byte %d" msg p)

(* --- reading ----------------------------------------------------------- *)

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None
let int k v = match member k v with Some (Int i) -> Some i | _ -> None

let float k v =
  match member k v with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let str k v = match member k v with Some (Str s) -> Some s | _ -> None
let bool k v = match member k v with Some (Bool b) -> Some b | _ -> None
let list k v = match member k v with Some (Arr l) -> l | _ -> []
