module Crc32 = Gf_util.Crc32

type op =
  | Add_edge of { u : int; v : int; elabel : int }
  | Del_edge of { u : int; v : int; elabel : int }
  | Add_vertex of { label : int }
  | Del_vertex of { v : int }
  | Checkpoint of { version : int }

type error =
  | Corrupt of { segment : string; offset : int; what : string }
  | Missing_prefix of { need_lsn : int; first_lsn : int }
  | Io of string

let error_to_string = function
  | Corrupt { segment; offset; what } ->
      Printf.sprintf "wal: corrupt record in %s at offset %d: %s" segment offset what
  | Missing_prefix { need_lsn; first_lsn } ->
      Printf.sprintf
        "wal: missing prefix: replay needs lsn %d but the oldest surviving segment starts at %d"
        need_lsn first_lsn
  | Io msg -> "wal: io error: " ^ msg

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let seg_magic = "GFQWAL1\n"
let seg_format = 1
let seg_header_size = 24

let seg_name seq = Printf.sprintf "wal.%08d.log" seq

let seg_seq_of_name name =
  if String.length name = 16 && String.sub name 0 4 = "wal." && String.sub name 12 4 = ".log"
  then int_of_string_opt (String.sub name 4 8)
  else None

let segment_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> seg_seq_of_name n <> None)
      |> List.sort compare (* zero-padded: lexicographic = numeric *)

(* Payload: op byte + little-endian u64 operands, lsn first. *)
let encode ~lsn op =
  let fields =
    match op with
    | Add_edge { u; v; elabel } -> ('E', [ lsn; u; v; elabel ])
    | Del_edge { u; v; elabel } -> ('R', [ lsn; u; v; elabel ])
    | Add_vertex { label } -> ('V', [ lsn; label ])
    | Del_vertex { v } -> ('X', [ lsn; v ])
    | Checkpoint { version } -> ('C', [ lsn; version ])
  in
  let tag, xs = fields in
  let b = Bytes.create (1 + (8 * List.length xs)) in
  Bytes.set b 0 tag;
  List.iteri (fun i x -> Bytes.set_int64_le b (1 + (8 * i)) (Int64.of_int x)) xs;
  b

(* Returns [Ok (lsn, op)] or [Error what]. Length must match the op's
   fixed operand count exactly. *)
let decode payload =
  let len = Bytes.length payload in
  let u64 i = Int64.to_int (Bytes.get_int64_le payload (1 + (8 * i))) in
  let need k what =
    if len <> 1 + (8 * k) then Error (Printf.sprintf "bad %s length %d" what len) else Ok ()
  in
  if len < 9 then Error (Printf.sprintf "payload too short (%d bytes)" len)
  else
    match Bytes.get payload 0 with
    | 'E' ->
        Result.map (fun () -> (u64 0, Add_edge { u = u64 1; v = u64 2; elabel = u64 3 })) (need 4 "add-edge")
    | 'R' ->
        Result.map (fun () -> (u64 0, Del_edge { u = u64 1; v = u64 2; elabel = u64 3 })) (need 4 "del-edge")
    | 'V' -> Result.map (fun () -> (u64 0, Add_vertex { label = u64 1 })) (need 2 "add-vertex")
    | 'X' -> Result.map (fun () -> (u64 0, Del_vertex { v = u64 1 })) (need 2 "del-vertex")
    | 'C' -> Result.map (fun () -> (u64 0, Checkpoint { version = u64 1 })) (need 2 "checkpoint")
    | c -> Error (Printf.sprintf "unknown op byte 0x%02x" (Char.code c))

let frame payload =
  let plen = Bytes.length payload in
  let b = Bytes.create (8 + plen) in
  Bytes.set_int32_le b 0 (Int32.of_int plen);
  Bytes.set_int32_le b 4 (Crc32.bytes payload);
  Bytes.blit payload 0 b 8 plen;
  b

let max_payload = 1 lsl 16

(* ------------------------------------------------------------------ *)
(* Low-level IO                                                        *)
(* ------------------------------------------------------------------ *)

let write_all fd buf pos len =
  let off = ref pos and left = ref len in
  while !left > 0 do
    let k = Unix.write fd buf !off !left in
    off := !off + k;
    left := !left - k
  done

let read_exact fd buf len =
  let got = ref 0 in
  (try
     while !got < len do
       let k = Unix.read fd buf !got (len - !got) in
       if k = 0 then raise Exit;
       got := !got + k
     done
   with Exit -> ());
  !got

(* Persist a directory entry (segment creation, deletion): fsync the
   directory itself. Best-effort on filesystems that refuse it. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let make_header ~first_lsn =
  let b = Bytes.create seg_header_size in
  Bytes.blit_string seg_magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int seg_format);
  Bytes.set_int64_le b 16 (Int64.of_int first_lsn);
  b

(* [Ok first_lsn] or [Error what]; short header is reported as [Error]. *)
let read_header fd =
  let b = Bytes.create seg_header_size in
  let got = read_exact fd b seg_header_size in
  if got < seg_header_size then Error "short segment header"
  else if Bytes.sub_string b 0 8 <> seg_magic then Error "bad segment magic"
  else if Int64.to_int (Bytes.get_int64_le b 8) <> seg_format then
    Error
      (Printf.sprintf "unsupported wal format %d" (Int64.to_int (Bytes.get_int64_le b 8)))
  else Ok (Int64.to_int (Bytes.get_int64_le b 16))

let header_first_lsn dir name =
  match Unix.openfile (Filename.concat dir name) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd ->
      let r = read_header fd in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      r

(* ------------------------------------------------------------------ *)
(* Scanning (open + replay share this)                                 *)
(* ------------------------------------------------------------------ *)

exception Scan_err of error

(* Reads every record of one segment starting at [expect_lsn], calling
   [f ~lsn op] for records with lsn > from_lsn. [last] = is this the
   final segment (a torn tail is then repaired by truncation, or the
   whole file removed if even the header is torn). Returns the next
   expected lsn. *)
let scan_segment dir name ~expect_lsn ~from_lsn ~last ~repair f =
  let path = Filename.concat dir name in
  let corrupt offset what = raise (Scan_err (Corrupt { segment = name; offset; what })) in
  let fd =
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | fd -> fd
    | exception Unix.Unix_error (e, _, _) -> raise (Scan_err (Io (Unix.error_message e)))
  in
  let truncate_at offset =
    (* Torn tail in the final segment: cut the file back to the last
       well-formed record so the log is again parseable end to end. *)
    if repair then begin
      let wfd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate wfd offset;
      (try Unix.fsync wfd with Unix.Unix_error _ -> ());
      Unix.close wfd
    end
  in
  let remove_file () =
    if repair then begin
      (try Sys.remove path with Sys_error _ -> ());
      fsync_dir dir
    end
  in
  let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally (fun () ->
      match read_header fd with
      | Error what ->
          if last then begin
            remove_file ();
            expect_lsn
          end
          else corrupt 0 what
      | Ok first_lsn ->
          if first_lsn <> expect_lsn then
            corrupt 16 (Printf.sprintf "segment starts at lsn %d, expected %d" first_lsn expect_lsn);
          let pos = ref seg_header_size in
          let lsn = ref expect_lsn in
          let hdr = Bytes.create 8 in
          let stop = ref false in
          while not !stop do
            let torn what = if last then (truncate_at !pos; stop := true) else corrupt !pos what in
            let got = read_exact fd hdr 8 in
            if got = 0 then stop := true
            else if got < 8 then torn "short frame header"
            else begin
              let plen = Int32.to_int (Bytes.get_int32_le hdr 0) in
              let crc = Bytes.get_int32_le hdr 4 in
              if plen < 9 || plen > max_payload then
                torn (Printf.sprintf "implausible record length %d" plen)
              else begin
                let payload = Bytes.create plen in
                let pgot = read_exact fd payload plen in
                if pgot < plen then torn "short record payload"
                else if Crc32.bytes payload <> crc then torn "crc mismatch"
                else
                  match decode payload with
                  | Error what -> corrupt !pos what
                  | Ok (rlsn, op) ->
                      if rlsn <> !lsn then
                        corrupt !pos (Printf.sprintf "lsn %d out of sequence, expected %d" rlsn !lsn);
                      if rlsn > from_lsn then f ~lsn:rlsn op;
                      incr lsn;
                      pos := !pos + 8 + plen
              end
            end
          done;
          !lsn)

(* Walks segments in order, enforcing header continuity, starting at the
   latest segment that still covers [from_lsn + 1]. [check_prefix] makes
   a gap before the replay point a hard [Missing_prefix] error (recovery);
   open-time scans pass [false] and start wherever the log starts. *)
let scan dir ~from_lsn ~check_prefix ~repair f =
  let segs = segment_files dir in
  match segs with
  | [] -> Ok from_lsn
  | _ -> (
      try
        let headed =
          List.map
            (fun name ->
              match header_first_lsn dir name with
              | Ok l -> (name, Some l)
              | Error _ -> (name, None))
            segs
        in
        (* A header-torn file is only tolerable as the final segment. *)
        let last_name = fst (List.nth headed (List.length headed - 1)) in
        List.iter
          (fun (name, h) ->
            if h = None && name <> last_name then
              raise (Scan_err (Corrupt { segment = name; offset = 0; what = "short segment header" })))
          headed;
        let need = from_lsn + 1 in
        let with_hdr = List.filter_map (fun (n, h) -> Option.map (fun l -> (n, l)) h) headed in
        let start =
          List.fold_left
            (fun acc (n, l) -> if l <= need then Some (n, l) else acc)
            None with_hdr
        in
        let start_name, start_lsn =
          match (start, with_hdr) with
          | Some s, _ -> s
          | None, (n, l) :: _ ->
              if check_prefix then raise (Scan_err (Missing_prefix { need_lsn = need; first_lsn = l }))
              else (n, l)
          | None, [] ->
              (* only a header-torn final segment exists *)
              (last_name, need)
        in
        let active = List.filter (fun (n, _) -> n >= start_name) headed in
        let expect = ref start_lsn in
        List.iter
          (fun (name, _) ->
            expect := scan_segment dir name ~expect_lsn:!expect ~from_lsn ~last:(name = last_name) ~repair f)
          active;
        Ok (!expect - 1)
      with
      | Scan_err e -> Error e
      | Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
      | Sys_error msg -> Error (Io msg))

let replay ?(from_lsn = 0) dir f = scan dir ~from_lsn ~check_prefix:true ~repair:true f

(* ------------------------------------------------------------------ *)
(* The writer                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  dir : string;
  segment_bytes : int;
  sync_every_append : bool;
  m : Mutex.t;
  done_cond : Condition.t;
  mutable fd : Unix.file_descr;
  mutable seg_seq : int;
  mutable seg_pos : int;  (** bytes written to the current segment *)
  mutable next : int;  (** next LSN to assign *)
  mutable appended : int;  (** last LSN handed to the OS *)
  mutable durable : int;  (** last LSN covered by a completed fsync *)
  mutable closed : bool;
}

let durable_lsn t = t.durable

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Create segment [seq] starting at [first_lsn]; header written and
   fsynced, directory entry persisted. *)
let create_segment dir seq ~first_lsn =
  let path = Filename.concat dir (seg_name seq) in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 in
  let hdr = make_header ~first_lsn in
  write_all fd hdr 0 seg_header_size;
  (try Unix.fsync fd with Unix.Unix_error _ -> ());
  fsync_dir dir;
  fd

let open_log ?(segment_bytes = 8 * 1024 * 1024) ?(sync_every_append = false) dir =
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    (* Validate + repair whatever survived, find the next LSN. *)
    match scan dir ~from_lsn:0 ~check_prefix:false ~repair:true (fun ~lsn:_ _ -> ()) with
    | Error _ as e -> e
    | Ok last ->
        let last_seq =
          List.fold_left
            (fun acc n -> match seg_seq_of_name n with Some s -> max acc s | None -> acc)
            0 (segment_files dir)
        in
        let next = last + 1 in
        (* A fresh segment on every open: recovery never appends into a
           possibly-torn tail, it starts a clean file. *)
        let fd = create_segment dir (last_seq + 1) ~first_lsn:next in
        Ok
          {
            dir;
            segment_bytes;
            sync_every_append;
            m = Mutex.create ();
            done_cond = Condition.create ();
            fd;
            seg_seq = last_seq + 1;
            seg_pos = seg_header_size;
            next;
            appended = next - 1;
            durable = next - 1;
            closed = false;
          }
  with
  | Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  | Sys_error msg -> Error (Io msg)

let rotate_locked t =
  (* New segment first, then retire the old one — the window where crash
     torture kills us with both files on disk. *)
  let nfd = create_segment t.dir (t.seg_seq + 1) ~first_lsn:t.next in
  Fault.hit Fault.Wal_mid_rotation;
  (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  t.fd <- nfd;
  t.seg_seq <- t.seg_seq + 1;
  t.seg_pos <- seg_header_size

let fsync_locked t =
  let target = t.appended in
  Fault.hit Fault.Wal_pre_fsync;
  Unix.fsync t.fd;
  if target > t.durable then t.durable <- target;
  Condition.broadcast t.done_cond

let append t op =
  try
    locked t (fun () ->
        if t.closed then Error (Io "log closed")
        else begin
          let lsn = t.next in
          let b = frame (encode ~lsn op) in
          let len = Bytes.length b in
          if t.seg_pos + len > t.segment_bytes && t.seg_pos > seg_header_size then rotate_locked t;
          (* Two writes with a fault point between them: an armed
             mid-record crash leaves a genuinely torn frame for recovery
             to truncate. *)
          let half = len / 2 in
          write_all t.fd b 0 half;
          Fault.hit Fault.Wal_mid_record;
          write_all t.fd b half (len - half);
          t.seg_pos <- t.seg_pos + len;
          t.next <- lsn + 1;
          t.appended <- lsn;
          if t.sync_every_append then fsync_locked t;
          Ok lsn
        end)
  with
  | Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  | Sys_error msg -> Error (Io msg)

let sync t =
  try
    locked t (fun () ->
        if t.closed then Error (Io "log closed")
        else begin
          let target = t.appended in
          (* Group commit: whoever gets the lock first flushes for every
             record appended so far; callers that arrive during that
             fsync find [durable] already covering them and return
             without touching the disk. *)
          if t.durable < target then fsync_locked t;
          Ok t.durable
        end)
  with
  | Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  | Sys_error msg -> Error (Io msg)

let rotate t =
  try
    locked t (fun () ->
        if t.closed then Error (Io "log closed")
        else begin
          rotate_locked t;
          Ok ()
        end)
  with
  | Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  | Sys_error msg -> Error (Io msg)

let drop_segments_below t lsn =
  try
    locked t (fun () ->
        let segs = segment_files t.dir in
        let headed =
          List.filter_map
            (fun n ->
              match header_first_lsn t.dir n with Ok l -> Some (n, l) | Error _ -> None)
            segs
        in
        (* A segment is disposable iff its successor starts at or below
           [lsn] (so every record in it has lsn < [lsn]) and it is not
           the open segment. *)
        let rec go removed = function
          | (name, _) :: ((_, next_first) :: _ as rest)
            when next_first <= lsn && name <> seg_name t.seg_seq ->
              (try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ());
              go (removed + 1) rest
          | _ :: rest -> go removed rest
          | [] -> removed
        in
        let removed = go 0 headed in
        if removed > 0 then fsync_dir t.dir;
        Ok removed)
  with
  | Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  | Sys_error msg -> Error (Io msg)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
        (try Unix.close t.fd with Unix.Unix_error _ -> ())
      end)
