module Gf = Graphflow
module Wire = Gf_server.Wire
module Service = Gf_server.Service
module Ladder = Gf_server.Ladder
module Json = Gf_util.Json

let version = 2

exception Bad of string

(* ------------------------------------------------------------------ *)
(* hello: version + node-id handshake                                  *)
(* ------------------------------------------------------------------ *)

let hello_req ~node ~role = Printf.sprintf "hello proto=%d node=%s role=%s" version node role

type hello = { p_proto : int; p_node : string; p_role : string }

let parse_hello line =
  let toks = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
  match toks with
  | "hello" :: opts ->
      let proto = ref (-1) and node = ref "?" and role = ref "?" in
      (try
         List.iter
           (fun tok ->
             match String.index_opt tok '=' with
             | None -> raise (Bad (Printf.sprintf "bad hello option %S" tok))
             | Some eq -> (
                 let k = String.sub tok 0 eq in
                 let v = String.sub tok (eq + 1) (String.length tok - eq - 1) in
                 match k with
                 | "proto" -> (
                     match int_of_string_opt v with
                     | Some p -> proto := p
                     | None -> raise (Bad (Printf.sprintf "bad proto %S" v)))
                 | "node" -> node := v
                 | "role" -> role := v
                 | _ -> raise (Bad (Printf.sprintf "unknown hello option %S" k))))
           opts;
         if !proto < 0 then Error "hello missing proto="
         else Ok { p_proto = !proto; p_node = !node; p_role = !role }
       with Bad m -> Error m)
  | _ -> Error "not a hello"

(* [clock_us] is the responder's wall clock at reply time: the caller
   brackets the exchange with its own clock reads and derives the
   peer-minus-local skew used to line up cross-process trace timestamps. *)
let hello_resp ~node ~n ~m ~graph_version ~clock_us =
  Json.to_string
    (Obj
       [ ("ok", Bool true); ("type", Str "hello"); ("proto", Int version); ("node", Str node);
         ("n", Int n); ("m", Int m); ("graph_version", Int graph_version);
         ("clock_us", Int clock_us) ])

let version_mismatch ~node ~theirs =
  Json.to_string
    (Obj
       [ ("ok", Bool false); ("error", Str "version_mismatch"); ("proto", Int version);
         ("theirs", Int theirs); ("node", Str node);
         ("detail", Str (Printf.sprintf "refusing mixed-version pair: speak proto %d" version)) ])

(* ------------------------------------------------------------------ *)
(* shard: a range-restricted run                                       *)
(* ------------------------------------------------------------------ *)

let shard_req ~part:(i, k) ?timeout_ms ?max_rows ?trace_ctx ~rows q =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "shard part=%d/%d" i k);
  (match timeout_ms with
  | Some t -> Buffer.add_string b (Printf.sprintf " timeout_ms=%d" t)
  | None -> ());
  (match max_rows with
  | Some r -> Buffer.add_string b (Printf.sprintf " max_rows=%d" r)
  | None -> ());
  (* Trace context propagation: the coordinator's trace id plus the name
     of the shard span the worker's tree will be grafted under. [parent]
     is a span name, single-token by construction (no spaces). *)
  (match trace_ctx with
  | Some (trace_id, parent) ->
      Buffer.add_string b (Printf.sprintf " trace_id=%d parent=%s" trace_id parent)
  | None -> ());
  if rows then Buffer.add_string b " rows";
  Buffer.add_string b (" q=" ^ q);
  Buffer.contents b

let parse_part v =
  match String.index_opt v '/' with
  | Some s -> (
      let i = int_of_string_opt (String.sub v 0 s)
      and k = int_of_string_opt (String.sub v (s + 1) (String.length v - s - 1)) in
      match (i, k) with
      | Some i, Some k when k > 0 && i >= 0 && i < k -> Ok (i, k)
      | _ -> Error (Printf.sprintf "bad part %S (want i/k with 0 <= i < k)" v))
  | None -> Error (Printf.sprintf "bad part %S (want i/k)" v)

(* The [run] option grammar (q= last, consuming the rest of the line)
   plus the mandatory part=i/k and the trace context. *)
let parse_shard line =
  let prefix = "shard " in
  if not (String.starts_with ~prefix line) || String.length line = String.length prefix then
    Error "not a shard request"
  else begin
    let part = ref None
    and timeout = ref None
    and max_rows = ref None
    and trace_id = ref None
    and parent = ref "shard"
    and collect = ref false in
    let opt k v =
      match (k, v) with
      | "part", Some v -> (
          match parse_part v with Ok p -> part := Some p | Error e -> raise (Wire.Bad e))
      | "timeout_ms", Some v -> timeout := Some (Wire.non_negative k v)
      | "max_rows", Some v -> max_rows := Some (Wire.non_negative k v)
      | "trace_id", Some v -> trace_id := Some (Wire.non_negative k v)
      | "parent", Some v -> parent := v
      | "rows", None -> collect := true
      | _ -> Wire.bad_option k v
    in
    let ( let* ) = Result.bind in
    let body = String.sub line (String.length prefix) (String.length line - String.length prefix) in
    let* qtext = Wire.parse_options body opt in
    let* part = Option.to_result ~none:"shard needs part=i/k" !part in
    let* query = Wire.parse_query qtext in
    Ok
      ( {
          (Service.request query) with
          Service.text = qtext;
          timeout_ms = !timeout;
          max_rows = !max_rows;
          part = Some part;
          collect_rows = !collect;
          trace = !trace_id <> None;
        },
        Option.map (fun id -> (id, !parent)) !trace_id )
  end

(* Worker-side observability payload attached to a traced shard reply:
   the span array ([Trace.export_spans]), the producer's OS pid for the
   Chrome process track, and its clock at reply time as a skew
   cross-check. *)
type obs = {
  o_trace_id : int;
  o_parent : string;
  o_pid : int;
  o_clock_us : int;
  o_spans : Json.t;
}

let shard_resp ~node ~part:(i, k) ?obs (reply : Service.reply) =
  let r = reply.Service.result in
  Json.to_string
    (Obj
       ([ ("ok", Json.Bool true); ("type", Str "shard"); ("part", Str (Printf.sprintf "%d/%d" i k));
          ("node", Str node); ("outcome", Str (Gf.Governor.outcome_to_string r.Ladder.outcome));
          ("matches", Int r.Ladder.counters.Gf.Counters.output);
          ("attempts", Int r.Ladder.attempts);
          ("rung", Str r.Ladder.rung); ("exec_s", Json.decimals 6 reply.Service.exec_s);
          ("graph_version", Int reply.Service.graph_version) ]
       @ (match obs with
         | None -> []
         | Some o ->
             [ ("trace_id", Json.Int o.o_trace_id); ("parent_span", Str o.o_parent);
               ("pid", Int o.o_pid); ("clock_us", Int o.o_clock_us); ("spans", o.o_spans) ])
       @ if reply.Service.rows = [] then [] else [ ("rows", Wire.rows_json reply.Service.rows) ]))

let not_owner ~node ~part:(i, k) =
  Json.to_string
    (Obj
       [ ("ok", Bool false); ("error", Str "not_owner"); ("node", Str node);
         ("part", Str (Printf.sprintf "%d/%d" i k));
         ("detail", Str "split-brain refusal: this node does not own the shard") ])

(* ------------------------------------------------------------------ *)
(* Coordinator client reply                                            *)
(* ------------------------------------------------------------------ *)

let run_resp ~id ~outcome ~matches ~shards ~incomplete ~failovers ~hedges ~retries ~exec_s
    ?trace_id ~rows () =
  Json.to_string
    (Obj
       ([ ("ok", Json.Bool true); ("id", Int id); ("outcome", Str outcome);
          ("matches", Int matches); ("shards", Int shards);
          ("incomplete_shards", Arr (List.map (fun i -> Json.Int i) incomplete));
          ("failovers", Int failovers); ("hedges", Int hedges); ("retries", Int retries);
          ("exec_s", Json.decimals 6 exec_s) ]
       (* [trace_id] is the coordinator's flight-recorder handle for the
          stitched trace: clients fetch it with [trace id=N]. *)
       @ (match trace_id with
         | Some tid -> [ ("traced", Json.Bool true); ("trace_id", Int tid) ]
         | None -> [])
       @ if rows <> [] then [ ("rows", Wire.rows_json rows) ] else []))
