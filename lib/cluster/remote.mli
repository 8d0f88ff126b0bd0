(** The coordinator's client side of the wire: timeout-bounded connect,
    one-line request/response, the hello handshake, and a small
    per-endpoint connection pool.

    Every operation is bounded — connect by select, reads and writes by
    SO_RCVTIMEO/SO_SNDTIMEO plus a private line buffer over [Unix.read] —
    so a dead or wedged peer becomes a structured [Error] within the
    deadline. No cluster code path may block indefinitely on a socket:
    that is the difference between a worker loss degrading a result and
    hanging a client. *)

type conn

val connect : ?timeout_s:float -> Gf_server.Server.endpoint -> (conn, string) result
val close : conn -> unit

val request : conn -> timeout_s:float -> string -> (string, string) result
(** One request line out, one response line back. *)

(** What the peer told us at [hello]: identity plus graph fingerprint —
    the coordinator refuses endpoints whose (n, m) disagree with the rest
    of the cluster, since identical graphs are what make per-worker plans
    identical and shard unions exact. [skew_us] is the peer-minus-local
    clock offset estimated NTP-style from the handshake round trip (0
    when the peer predates [clock_us]); the coordinator uses it to align
    grafted worker trace timestamps with its own clock. *)
type peer = { node : string; n : int; m : int; graph_version : int; skew_us : int }

val handshake : conn -> timeout_s:float -> node:string -> role:string -> (peer, string) result

(** Pool of idle, already-handshaked connections, keyed by endpoint.
    Errored connections must be {!close}d, never checked back in. *)
type pool

val pool_create : ?max_idle:int -> unit -> pool
val checkout : pool -> Gf_server.Server.endpoint -> conn option
val checkin : pool -> Gf_server.Server.endpoint -> conn -> unit
val pool_close : pool -> unit
