(* Spawning and driving real [gfq serve] processes over Unix sockets. *)

(* A server role: how to (re)start it and where it listens. *)
type role = { name : string; argv : string array; socket : string; log : string }

type proc = { role : role; pid : int; cmd : string array }

(* Every process this program started and has not reaped yet; [reap_all]
   (run at exit) kills and waits for whatever is left. *)
let live : proc list ref = ref []

let exec role cmd =
  let out = Unix.openfile role.log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process cmd.(0) cmd devnull out out in
  Unix.close out;
  Unix.close devnull;
  let p = { role; pid; cmd } in
  live := p :: !live;
  p

(* A helper process that is not a server (it has no socket or log) but is
   reaped like one. *)
let exec_piped ~name cmd ~stdin ~stdout =
  let pid = Unix.create_process cmd.(0) cmd stdin stdout Unix.stderr in
  let p = { role = { name; argv = [||]; socket = ""; log = "" }; pid; cmd } in
  live := p :: !live;
  p

let cpu_list cpus = String.concat "," (List.map string_of_int cpus)

(* Starts [gfq serve <argv>], behind [taskset -c cpus] when [cpus] is
   given; [respawn] repeats the exact command. *)
let spawn ~gfq ?cpus role =
  let pin = match cpus with Some c -> [ "taskset"; "-c"; cpu_list c ] | None -> [] in
  exec role (Array.of_list (pin @ (gfq :: "serve" :: Array.to_list role.argv)))

let respawn p = exec p.role p.cmd

let rec waitpid_noeintr pid =
  try ignore (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

let kill9 p =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try waitpid_noeintr p.pid with Unix.Unix_error _ -> ());
  live := List.filter (fun q -> q.pid <> p.pid) !live

let reap_all () = List.iter kill9 !live

let exited p =
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* Listening = a connect succeeds. Polled every millisecond, so the
   resolution of a start-up time is well under its run-to-run spread. *)
let wait_listening ?(timeout_s = 60.) p =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX p.role.socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        Unix.close fd;
        if exited p then
          failwith (Printf.sprintf "%s exited during start-up (see %s)" p.role.name p.role.log);
        if Unix.gettimeofday () > deadline then
          failwith (p.role.name ^ ": not listening after start-up timeout");
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* A field of /proc/<pid>/status, trimmed. *)
let status_field pid key =
  match In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = key ->
                 Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> None)

(* Peak resident set (VmHWM) in kB. *)
let vm_hwm_kb p =
  Option.bind (status_field (string_of_int p.pid) "VmHWM") (fun v -> Scanf.sscanf_opt v "%d kB" Fun.id)
  |> Option.value ~default:0

(* A CPU list such as "0-3,6", as /proc and taskset write it; [] when it
   does not parse. *)
let parse_cpu_list s =
  let range r =
    match List.map int_of_string_opt (String.split_on_char '-' r) with
    | [ Some a ] -> Some [ a ]
    | [ Some a; Some b ] when a <= b -> Some (List.init (b - a + 1) (( + ) a))
    | _ -> None
  in
  let ranges = List.map range (String.split_on_char ',' s) in
  if List.mem None ranges then [] else List.concat_map Option.get ranges

(* The CPUs this process may run on. *)
let allowed_cpus () =
  Option.fold ~none:[] ~some:parse_cpu_list (status_field "self" "Cpus_allowed_list")

(* Pins every thread of this process, and those it creates later, to
   [cpus]; false when taskset is missing or refuses. *)
let pin_self cpus =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let cmd = [| "taskset"; "-a"; "-p"; "-c"; cpu_list cpus; string_of_int (Unix.getpid ()) |] in
  let pinned =
    match Unix.create_process cmd.(0) cmd devnull devnull devnull with
    | exception Unix.Unix_error _ -> false
    | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> true
        | _ -> false
        | exception Unix.Unix_error _ -> false)
  in
  Unix.close devnull;
  pinned

(* A client connection: one request line out, one reply line back. A reply
   that takes a minute fails the run instead of hanging it. *)
type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let ask c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let with_conn path f =
  let c = connect path in
  Fun.protect ~finally:(fun () -> close c) (fun () -> f c)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end
