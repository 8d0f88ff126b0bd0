module Gf = Graphflow
module Metrics = Gf_exec.Metrics

type endpoint = Unix_path of string | Tcp of string * int

let c_inc name help = Metrics.inc (Metrics.counter ~help name)

type conn = { fd : Unix.file_descr; mutable thread : Thread.t option }

type hook = string -> [ `Reply of string | `Close | `Pass ]

type state = {
  service : Service.t;
  hook : hook;
  listen_fd : Unix.file_descr;
  m : Mutex.t;
  mutable conns : conn list;
  mutable stopping : bool;
}

let request_stop st =
  Mutex.lock st.m;
  st.stopping <- true;
  Mutex.unlock st.m

let handle_conn st conn =
  let ic = Unix.in_channel_of_descr conn.fd in
  let oc = Unix.out_channel_of_descr conn.fd in
  let respond line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
    | line ->
        c_inc "gf_server_requests_received_total" "Request lines received";
        let continue =
          match st.hook line with
          | `Reply r ->
              respond r;
              true
          | `Close -> false
          | `Pass -> (
          match Wire.parse_request line with
          | Error detail ->
              respond (Wire.error_resp ~kind:"parse" ~detail);
              true
          | Ok Wire.Ping ->
              respond Wire.pong;
              true
          | Ok Wire.Metrics_req ->
              respond (Wire.metrics_resp (Metrics.exposition ()));
              true
          | Ok Wire.Stats ->
              respond (Wire.stats_resp (Service.stats st.service));
              true
          | Ok (Wire.Slowlog n) ->
              respond
                (Wire.slowlog_resp (Gf.Recorder.recent (Service.recorder st.service) n));
              true
          | Ok (Wire.Trace_of id) ->
              (match Gf.Recorder.find_trace (Service.recorder st.service) id with
              | Some json -> respond (Wire.trace_resp ~id json)
              | None -> respond (Wire.trace_not_found id));
              true
          | Ok Wire.Shutdown ->
              respond Wire.shutting_down;
              request_stop st;
              false
          | Ok (Wire.Run req) ->
              (match Service.submit st.service req with
              | Ok reply -> respond (Wire.ok_run ~reply)
              | Error reason -> respond (Wire.rejected reason));
              true
          | Ok (Wire.Mutate (mut, trace)) ->
              (match Service.mutate st.service ~trace ~text:line mut with
              | Ok reply -> respond (Wire.ok_mutation reply ~traced:trace)
              | Error e -> respond (Wire.mutation_rejected e));
              true)
        in
        if continue then loop ()
  in
  (try loop () with Sys_error _ | Unix.Unix_error _ -> ());
  (* Closed under the lock, so [cut] never reaches a reused descriptor. *)
  Mutex.lock st.m;
  st.conns <- List.filter (fun c -> c != conn) st.conns;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.unlock st.m

(* Shut every open connection down in direction [how]; [true] if any was
   still open. *)
let cut st how =
  Mutex.lock st.m;
  List.iter (fun c -> try Unix.shutdown c.fd how with Unix.Unix_error _ -> ()) st.conns;
  let any = st.conns <> [] in
  Mutex.unlock st.m;
  any

let bind_endpoint = function
  | Unix_path path ->
      (try if (Unix.lstat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
       with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      fd
  | Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      fd

let serve ?(on_ready = fun _ -> ()) ?(hook = fun _ -> `Pass) service endpoint =
  (* A client vanishing mid-response must not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = bind_endpoint endpoint in
  Unix.listen listen_fd 64;
  let st =
    { service; hook; listen_fd; m = Mutex.create (); conns = []; stopping = false }
  in
  let old_int = ref Sys.Signal_default and old_term = ref Sys.Signal_default in
  (try
     old_int := Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> request_stop st));
     old_term := Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> request_stop st))
   with Invalid_argument _ -> ());
  on_ready endpoint;
  let stopping () =
    Mutex.lock st.m;
    let s = st.stopping in
    Mutex.unlock st.m;
    s
  in
  (* Accept loop: runs on the calling thread until [request_stop]. A blocked
     [accept] is not woken by closing the socket from another thread on
     Linux, so poll with [select] and recheck the stop flag — [request_stop]
     (a shutdown request, SIGINT/SIGTERM) is seen within [poll_s]. *)
  Unix.set_nonblock listen_fd;
  let poll_s = 0.2 in
  let rec accept_loop () =
    if not (stopping ()) then begin
      (match Unix.select [ listen_fd ] [] [] poll_s with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept listen_fd with
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ()
          | fd, _addr ->
              Unix.clear_nonblock fd;
              c_inc "gf_server_connections_total" "Connections accepted";
              let conn = { fd; thread = None } in
              Mutex.lock st.m;
              st.conns <- conn :: st.conns;
              Mutex.unlock st.m;
              conn.thread <- Some (Thread.create (fun () -> handle_conn st conn) ())));
      accept_loop ()
    end
  in
  accept_loop ();
  (* Graceful drain: stop admitting, answer the queue, cancel stragglers
     and wait until no request executes. Then stop reading: an idle
     connection sees end of input, while a reply still being written (a
     ticket the drain answered) goes out. Connections still open after a
     second are cut, and every connection thread is joined. *)
  Service.drain service;
  Mutex.lock st.m;
  let threads = List.filter_map (fun c -> c.thread) st.conns in
  Mutex.unlock st.m;
  let linger_until = Unix.gettimeofday () +. 1.0 in
  while cut st Unix.SHUTDOWN_RECEIVE && Unix.gettimeofday () < linger_until do
    Thread.delay 0.005
  done;
  ignore (cut st Unix.SHUTDOWN_ALL);
  List.iter Thread.join threads;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Sys.set_signal Sys.sigint !old_int with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm !old_term with Invalid_argument _ -> ());
  match endpoint with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
