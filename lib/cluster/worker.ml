module Service = Gf_server.Service
module Wire = Gf_server.Wire

type t = {
  service : Service.t;
  node : string;
  n : int;
  m : int;
  slow_s : float option;  (** static straggler injection (bench) *)
}

let create ?slow_s ~node ~n ~m service = { service; node; n; m; slow_s }

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let hook t line : [ `Reply of string | `Close | `Pass ] =
  let line = String.trim line in
  if starts_with ~prefix:"hello" line then
    match Proto.parse_hello line with
    | Error m -> `Reply (Wire.error_resp ~kind:"parse" ~detail:m)
    | Ok h ->
        if h.Proto.p_proto <> Proto.version then
          `Reply (Proto.version_mismatch ~node:t.node ~theirs:h.Proto.p_proto)
        else
          let gv = (Service.stats t.service).Service.s_graph_version in
          `Reply
            (Proto.hello_resp ~node:t.node ~n:t.n ~m:t.m ~graph_version:gv
               ~clock_us:(Gf_obs.Trace.now_us ()))
  else if starts_with ~prefix:"shard " line then begin
    (* Fault sites, in dispatch order: the kill fires between receiving the
       morsel and producing any reply byte — exactly the window the
       coordinator's failover must cover. *)
    ignore (Cfault.fire Cfault.Worker_kill : bool);
    if Cfault.fire Cfault.Conn_drop then `Close
    else if Cfault.fire Cfault.Split_refusal then
      match Proto.parse_shard line with
      | Ok (req, _) -> `Reply (Proto.not_owner ~node:t.node ~part:(Option.get req.Service.part))
      | Error m -> `Reply (Wire.error_resp ~kind:"parse" ~detail:m)
    else begin
      if Cfault.fire Cfault.Slow_worker then Thread.delay 0.5;
      (match t.slow_s with Some s -> Thread.delay s | None -> ());
      match Proto.parse_shard line with
      | Error m -> `Reply (Wire.error_resp ~kind:"parse" ~detail:m)
      | Ok (req, trace_ctx) -> (
          match Service.submit t.service req with
          | Ok reply ->
              (* Traced request: ship the span tree back so the coordinator
                 can stitch it into the cluster-wide trace under this
                 worker's own process track. *)
              let obs =
                match (trace_ctx, reply.Service.trace_obj) with
                | Some (trace_id, parent), Some tr ->
                    Some
                      {
                        Proto.o_trace_id = trace_id;
                        o_parent = parent;
                        o_pid = Unix.getpid ();
                        o_clock_us = Gf_obs.Trace.now_us ();
                        o_spans = Gf_obs.Trace.export_spans tr;
                      }
                | _ -> None
              in
              `Reply (Proto.shard_resp ~node:t.node ~part:(Option.get req.Service.part) ?obs reply)
          | Error reason -> `Reply (Wire.rejected reason))
    end
  end
  else `Pass
