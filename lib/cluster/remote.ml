module Server = Gf_server.Server
module Json = Gf_util.Json

(* A connection with a private read buffer: every read is bounded by
   SO_RCVTIMEO, so no cluster RPC can hang — a dead peer surfaces as a
   timeout or EOF within the deadline, never as a stuck thread. *)
type conn = { fd : Unix.file_descr; rbuf : Buffer.t }

let addr_of = function
  | Server.Unix_path p -> Unix.ADDR_UNIX p
  | Server.Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      Unix.ADDR_INET (addr, port)

let domain_of = function
  | Server.Unix_path _ -> Unix.PF_UNIX
  | Server.Tcp _ -> Unix.PF_INET

let connect ?(timeout_s = 1.0) ep =
  (* A peer can die between our write and its read; surface that as an
     error on the socket, not a process-killing signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match
    let fd = Unix.socket (domain_of ep) Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s
     with Unix.Unix_error _ -> ());
    (* Bounded connect: nonblocking + select, then surface the socket
       error (a refused unix socket fails immediately; TCP may be in
       progress). *)
    Unix.set_nonblock fd;
    (match Unix.connect fd (addr_of ep) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
      -> (
        match Unix.select [] [ fd ] [] timeout_s with
        | [], [], [] ->
            Unix.close fd;
            failwith "connect timeout"
        | _ -> (
            match Unix.getsockopt_error fd with
            | None -> ()
            | Some err ->
                Unix.close fd;
                raise (Unix.Unix_error (err, "connect", "")))));
    Unix.clear_nonblock fd;
    fd
  with
  | fd -> Ok { fd; rbuf = Buffer.create 256 }
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Failure m -> Error m

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let send_line conn ~timeout_s line =
  (try Unix.setsockopt_float conn.fd Unix.SO_SNDTIMEO timeout_s
   with Unix.Unix_error _ -> ());
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let rec write off =
    if off >= len then Ok ()
    else
      match Unix.write conn.fd data off (len - off) with
      | 0 -> Error "write: connection closed"
      | n -> write (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Error "write timeout"
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  write 0

let recv_line conn ~timeout_s =
  (try Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO timeout_s
   with Unix.Unix_error _ -> ());
  let chunk = Bytes.create 4096 in
  let rec take () =
    let s = Buffer.contents conn.rbuf in
    match String.index_opt s '\n' with
    | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear conn.rbuf;
        Buffer.add_substring conn.rbuf s (i + 1) (String.length s - i - 1);
        Ok line
    | None -> (
        match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
        | 0 -> Error "eof"
        | n ->
            Buffer.add_subbytes conn.rbuf chunk 0 n;
            take ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Error "read timeout"
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
  in
  take ()

let request conn ~timeout_s line =
  match send_line conn ~timeout_s line with
  | Error _ as e -> e
  | Ok () -> recv_line conn ~timeout_s

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

type peer = { node : string; n : int; m : int; graph_version : int; skew_us : int }

let handshake conn ~timeout_s ~node ~role =
  (* Bracket the exchange with local clock reads: the peer stamps its
     reply with its own clock, and peer-minus-midpoint approximates the
     clock skew (NTP-style, error bounded by half the round trip). The
     skew realigns grafted trace timestamps, where half-RTT jitter is
     well under a span's width. *)
  let t0 = Gf_obs.Trace.now_us () in
  match request conn ~timeout_s (Proto.hello_req ~node ~role) with
  | Error m -> Error ("hello: " ^ m)
  | Ok reply -> (
      let t1 = Gf_obs.Trace.now_us () in
      match Json.parse reply with
      | Error e -> Error ("hello: malformed reply: " ^ e)
      | Ok v -> (
          match (Json.bool "ok" v, Json.int "proto" v) with
          | Some true, Some p when p = Proto.version ->
              let int k = Option.value (Json.int k v) ~default:0 in
              Ok
                {
                  node = Option.value (Json.str "node" v) ~default:"?";
                  n = int "n";
                  m = int "m";
                  graph_version = int "graph_version";
                  skew_us =
                    (match Json.int "clock_us" v with
                    | Some peer_clock -> peer_clock - ((t0 + t1) / 2)
                    | None -> 0);
                }
          | Some true, Some p ->
              Error
                (Printf.sprintf "version_mismatch: peer speaks proto %d, we speak %d" p
                   Proto.version)
          | Some false, _ ->
              Error
                (Option.value (Json.str "error" v) ~default:"refused"
                ^ Option.fold ~none:"" ~some:(fun d -> ": " ^ d) (Json.str "detail" v))
          | _ -> Error "hello: malformed reply"))

(* ------------------------------------------------------------------ *)
(* Per-endpoint connection pool                                        *)
(* ------------------------------------------------------------------ *)

type pool = {
  m : Mutex.t;
  idle : (string, conn list) Hashtbl.t;
  max_idle : int;
}

let pool_create ?(max_idle = 4) () = { m = Mutex.create (); idle = Hashtbl.create 8; max_idle }

let checkout pool ep =
  let key = Topology.endpoint_to_string ep in
  Mutex.lock pool.m;
  let c =
    match Hashtbl.find_opt pool.idle key with
    | Some (c :: rest) ->
        Hashtbl.replace pool.idle key rest;
        Some c
    | _ -> None
  in
  Mutex.unlock pool.m;
  c

let checkin pool ep conn =
  let key = Topology.endpoint_to_string ep in
  Mutex.lock pool.m;
  let cur = Option.value (Hashtbl.find_opt pool.idle key) ~default:[] in
  let keep = List.length cur < pool.max_idle in
  if keep then Hashtbl.replace pool.idle key (conn :: cur);
  Mutex.unlock pool.m;
  if not keep then close conn

let pool_close pool =
  Mutex.lock pool.m;
  Hashtbl.iter (fun _ conns -> List.iter close conns) pool.idle;
  Hashtbl.reset pool.idle;
  Mutex.unlock pool.m
