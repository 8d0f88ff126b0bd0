module Timing = Gf_util.Timing
module Json = Gf_util.Json

type arg = Int of int | Str of string | Float of float

type span = {
  name : string;
  cat : string;
  pid : int;
  tid : int;
  ts_us : int;
  dur_us : int;
  depth : int;
  args : (string * arg) list;
}

type open_span = {
  o_name : string;
  o_cat : string;
  o_ts : int;
  o_args : (string * arg) list;
}

(* One buffer per recording thread of control (an OCaml domain, a service
   worker thread). Recording mutates only this buffer — no atomics, no
   locks, no contention between domains. The ring overwrites its oldest
   completed span when full (flight-recorder semantics); [n] keeps counting
   so drops are visible. [pid] defaults to 1 for locally recorded spans;
   grafted foreign buffers carry their producer's OS pid so Chrome trace
   viewers render one track group per process. *)
type buf = {
  pid : int;
  tid : int;
  tname : string;
  cap : int;
  ring : span array;
  mutable n : int; (* total spans recorded; slot = n mod cap *)
  mutable stack : open_span list;
}

type t = {
  capacity : int;
  m : Mutex.t; (* guards [bufs]/[pnames] registration/export, never recording *)
  mutable bufs : buf list;
  mutable pnames : (int * string) list; (* pid -> process name, for export *)
}

let dummy_span =
  { name = ""; cat = ""; pid = 0; tid = 0; ts_us = 0; dur_us = 0; depth = 0; args = [] }

let create ?(capacity = 8192) () =
  { capacity = max 16 capacity; m = Mutex.create (); bufs = []; pnames = [ (1, "gfq") ] }

let register_process t ~pid name =
  Mutex.lock t.m;
  t.pnames <- (pid, name) :: List.remove_assoc pid t.pnames;
  Mutex.unlock t.m

let buffer ?(name = "") ?(pid = 1) t ~tid =
  let b =
    {
      pid;
      tid;
      tname = name;
      cap = t.capacity;
      ring = Array.make t.capacity dummy_span;
      n = 0;
      stack = [];
    }
  in
  Mutex.lock t.m;
  t.bufs <- b :: t.bufs;
  Mutex.unlock t.m;
  b

let now_us = Timing.now_us

let push b s =
  b.ring.(b.n mod b.cap) <- s;
  b.n <- b.n + 1

let add_complete ?(cat = "") ?(args = []) b ~name ~ts_us ~dur_us =
  push b
    {
      name;
      cat;
      pid = b.pid;
      tid = b.tid;
      ts_us;
      dur_us = max 0 dur_us;
      depth = List.length b.stack;
      args;
    }

let begin_span ?(cat = "") ?(args = []) b name =
  b.stack <- { o_name = name; o_cat = cat; o_ts = Timing.now_us (); o_args = args } :: b.stack

let end_span ?(args = []) b =
  match b.stack with
  | [] -> () (* unmatched end: ignore rather than corrupt the stack *)
  | o :: rest ->
      b.stack <- rest;
      let now = Timing.now_us () in
      push b
        {
          name = o.o_name;
          cat = o.o_cat;
          pid = b.pid;
          tid = b.tid;
          ts_us = o.o_ts;
          dur_us = max 0 (now - o.o_ts);
          depth = List.length rest;
          args = o.o_args @ args;
        }

let span ?cat ?args b name f =
  begin_span ?cat ?args b name;
  Fun.protect ~finally:(fun () -> end_span b) f

let instant ?(cat = "") ?(args = []) b name =
  add_complete ~cat ~args b ~name ~ts_us:(Timing.now_us ()) ~dur_us:0

(* Close every open span — the unwind path (governor trips, faults) skips
   the orderly end_span calls, and an export must never see an unbalanced
   stack. *)
let close_all b = while b.stack <> [] do end_span b done

let buf_spans b =
  let stored = min b.n b.cap in
  (* Oldest first: recording order within the buffer. *)
  List.init stored (fun i -> b.ring.((b.n - stored + i) mod b.cap))

let with_bufs t f =
  Mutex.lock t.m;
  let bufs = t.bufs in
  Mutex.unlock t.m;
  f (List.rev bufs)

let spans t =
  with_bufs t (fun bufs ->
      List.concat_map buf_spans bufs |> List.stable_sort (fun a b -> compare a.ts_us b.ts_us))

let dropped t =
  with_bufs t (fun bufs -> List.fold_left (fun acc b -> acc + max 0 (b.n - b.cap)) 0 bufs)

(* --- cross-process span shipping --------------------------------------- *)

(* Workers ship their span tree inside the shard reply as a JSON array: per
   buffer, a {tid, tname} entry followed by one {tid, ts, dur, depth, name,
   cat, args} entry per span; [args] is left out when empty. *)

let arg_to_json = function Int i -> Json.Int i | Float f -> Json.Float f | Str s -> Json.Str s

let args_to_json args = Json.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) args)

let export_spans t =
  with_bufs t (fun bufs ->
      Json.Arr
        (List.concat_map
           (fun b ->
             Json.Obj [ ("tid", Int b.tid); ("tname", Str b.tname) ]
             :: List.map
                  (fun (s : span) ->
                    Json.Obj
                      ([ ("tid", Json.Int s.tid); ("ts", Int s.ts_us); ("dur", Int s.dur_us);
                         ("depth", Int s.depth); ("name", Str s.name); ("cat", Str s.cat) ]
                      @ if s.args = [] then [] else [ ("args", args_to_json s.args) ]))
                  (buf_spans b))
           bufs))

(* Splice a worker's span array into this trace under its own process
   track. [skew_us] is the worker-minus-coordinator clock offset measured
   at handshake; subtracting it moves foreign timestamps into the local
   clock frame so tracks line up in Perfetto. Malformed entries are
   skipped — observability must not fail the request. *)
let graft t ~pid ~pname ~skew_us data =
  register_process t ~pid pname;
  let tracks : (int, buf) Hashtbl.t = Hashtbl.create 4 in
  let track ?(tname = "") tid =
    match Hashtbl.find_opt tracks tid with
    | Some b -> b
    | None ->
        let b = buffer ~name:tname ~pid t ~tid in
        Hashtbl.replace tracks tid b;
        b
  in
  let arg = function
    | k, Json.Int i -> Some (k, Int i)
    | k, Json.Float f -> Some (k, Float f)
    | k, Json.Str s -> Some (k, Str s)
    | _ -> None
  in
  let entry e =
    let int k = Json.int k e and str k = Json.str k e in
    match (int "tid", str "tname", int "ts", int "dur", int "depth", str "name", str "cat") with
    | Some tid, Some tname, None, _, _, _, _ -> ignore (track ~tname tid)
    | Some tid, None, Some ts, Some dur, Some depth, Some name, Some cat ->
        let args = match Json.member "args" e with Some (Obj kv) -> kv | _ -> [] in
        push (track tid)
          {
            name;
            cat;
            pid;
            tid;
            ts_us = ts - skew_us;
            dur_us = max 0 dur;
            depth;
            args = List.filter_map arg args;
          }
    | _ -> ()
  in
  match data with Json.Arr entries -> List.iter entry entries | _ -> ()

(* --- export ------------------------------------------------------------ *)

(* A begin or end event in the exported stream. *)
type event = { e_ph : char; e_name : string; e_cat : string; e_pid : int; e_tid : int;
               e_ts : int; e_args : (string * arg) list }

(* Per-track well-nested B/E emission. Spans within one track come from a
   stack discipline so they nest by construction, but merged synthesized
   spans and µs truncation can produce boundary ties; sorting containers
   first and clamping children to their parent's end makes the output
   provably balanced and properly nested whatever the input. *)
let events_of_track (pid, tid) spans =
  let arr = Array.of_list spans in
  let key s = (s.ts_us, -(s.ts_us + s.dur_us), s.depth) in
  (* Stable: ties keep recording order. *)
  let idx = Array.mapi (fun i s -> (key s, i, s)) arr in
  Array.sort (fun (ka, ia, _) (kb, ib, _) -> compare (ka, ia) (kb, ib)) idx;
  let out = ref [] in
  let emit e = out := e :: !out in
  let stack = ref [] in
  let close_upto ts =
    let rec go () =
      match !stack with
      | (s, e) :: rest when e <= ts ->
          emit
            { e_ph = 'E'; e_name = s.name; e_cat = s.cat; e_pid = pid; e_tid = tid; e_ts = e;
              e_args = [] };
          stack := rest;
          go ()
      | _ -> ()
    in
    go ()
  in
  Array.iter
    (fun (_, _, s) ->
      close_upto s.ts_us;
      let end_ts =
        match !stack with
        | (_, parent_end) :: _ -> min (s.ts_us + s.dur_us) parent_end
        | [] -> s.ts_us + s.dur_us
      in
      emit
        { e_ph = 'B'; e_name = s.name; e_cat = s.cat; e_pid = pid; e_tid = tid; e_ts = s.ts_us;
          e_args = s.args };
      stack := (s, end_ts) :: !stack)
    idx;
  List.iter
    (fun (s, e) ->
      emit
        { e_ph = 'E'; e_name = s.name; e_cat = s.cat; e_pid = pid; e_tid = tid; e_ts = e;
          e_args = [] })
    !stack;
  stack := [];
  List.rev !out

let by_track (spans : span list) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : span) ->
      let key = (s.pid, s.tid) in
      let l = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
      Hashtbl.replace tbl key (s :: l))
    spans;
  Hashtbl.fold (fun key l acc -> (key, List.rev l) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let events t =
  let spans = spans t in
  List.concat_map (fun (key, ss) -> events_of_track key ss) (by_track spans)

let chrome_events t =
  List.map (fun e -> (e.e_ph, e.e_tid, e.e_ts, e.e_name)) (events t)

let pids t =
  with_bufs t (fun bufs -> List.sort_uniq compare (List.map (fun b -> b.pid) bufs))

let process_name t pid =
  Mutex.lock t.m;
  let n = List.assoc_opt pid t.pnames in
  Mutex.unlock t.m;
  match n with
  | Some n -> n
  | None -> if pid = 1 then "gfq" else Printf.sprintf "pid-%d" pid

let to_chrome_json t =
  let evs = events t in
  let base = List.fold_left (fun acc e -> min acc e.e_ts) max_int evs in
  let base = if base = max_int then 0 else base in
  let meta name pid tid value =
    Json.Obj
      [ ("name", Str name); ("ph", Str "M"); ("pid", Int pid); ("tid", Int tid);
        ("args", Obj [ ("name", Str value) ]) ]
  in
  let pids = match pids t with [] -> [ 1 ] | ps -> ps in
  let processes = List.map (fun pid -> meta "process_name" pid 0 (process_name t pid)) pids in
  let seen_threads = Hashtbl.create 8 in
  let threads =
    with_bufs t
      (List.filter_map (fun b ->
           if b.tname = "" || Hashtbl.mem seen_threads (b.pid, b.tid) then None
           else begin
             Hashtbl.replace seen_threads (b.pid, b.tid) ();
             Some (meta "thread_name" b.pid b.tid b.tname)
           end))
  in
  let event e =
    Json.Obj
      ([ ("name", Json.Str e.e_name); ("cat", Str (if e.e_cat = "" then "span" else e.e_cat));
         ("ph", Str (String.make 1 e.e_ph)); ("ts", Int (e.e_ts - base)); ("pid", Int e.e_pid);
         ("tid", Int e.e_tid) ]
      @ if e.e_args = [] then [] else [ ("args", args_to_json e.e_args) ])
  in
  Json.to_string
    (Obj
       [ ("displayTimeUnit", Str "ms");
         ("traceEvents", Arr (processes @ threads @ List.map event evs)) ])

(* --- terminal renderer ------------------------------------------------- *)

let arg_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let render t =
  let buf = Buffer.create 1024 in
  let name_of_track (pid, tid) =
    let proc = if pid = 1 then "" else Printf.sprintf "%s " (process_name t pid) in
    with_bufs t (fun bufs ->
        match List.find_opt (fun b -> b.pid = pid && b.tid = tid && b.tname <> "") bufs with
        | Some b -> Printf.sprintf "%stid %d (%s)" proc tid b.tname
        | None -> Printf.sprintf "%stid %d" proc tid)
  in
  List.iter
    (fun (key, ss) ->
      Buffer.add_string buf (name_of_track key);
      Buffer.add_char buf '\n';
      (* Rebuild the nesting with the same walk the exporter uses, printing
         a line per B event at its stack depth. *)
      let evs = events_of_track key ss in
      let depth = ref 0 in
      let durations = Hashtbl.create 64 in
      List.iter (fun s -> Hashtbl.add durations (s.ts_us, s.name) s.dur_us) ss;
      List.iter
        (fun e ->
          match e.e_ph with
          | 'B' ->
              let dur = Option.value (Hashtbl.find_opt durations (e.e_ts, e.e_name)) ~default:0 in
              let args =
                if e.e_args = [] then ""
                else
                  "  ["
                  ^ String.concat " "
                      (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (arg_to_string v)) e.e_args)
                  ^ "]"
              in
              Buffer.add_string buf
                (Printf.sprintf "  %-*s%-*s %10.3fms%s\n" (2 * !depth) "" (max 1 (40 - (2 * !depth)))
                   e.e_name
                   (float_of_int dur /. 1000.)
                   args);
              incr depth
          | _ -> decr depth)
        evs)
    (by_track (spans t));
  let d = dropped t in
  if d > 0 then Buffer.add_string buf (Printf.sprintf "  (%d spans dropped by full ring buffers)\n" d);
  Buffer.contents buf
