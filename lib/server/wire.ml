module Gf = Graphflow
module Json = Gf_util.Json

(* A parse error rendered with a caret under the offending offset (the
   same presentation as the gfq CLI). *)
let show_parse_error (e : Gf.Parse_error.t) =
  Printf.sprintf "parse error: %s | %s | %s^" e.Gf.Parse_error.message
    e.Gf.Parse_error.input
    (String.make (min e.Gf.Parse_error.pos (String.length e.Gf.Parse_error.input)) ' ')

let parse_query s =
  match
    if String.length s >= 2 && s.[0] = 'Q' then
      int_of_string_opt (String.sub s 1 (String.length s - 1))
    else None
  with
  | Some i -> (
      match Gf.Patterns.q i with
      | q -> Ok q
      | exception (Failure m | Invalid_argument m) -> Error m)
  | None ->
      let upper = String.uppercase_ascii (String.trim s) in
      if String.length upper >= 5 && String.sub upper 0 5 = "MATCH" then
        match Gf.Cypher.parse_result s with
        | Ok (q, _) -> Ok q
        | Error e -> Error (show_parse_error e)
      else (
        match Gf.Query_parser.parse_result s with
        | Ok q -> Ok q
        | Error e -> Error (show_parse_error e))

type request =
  | Ping
  | Metrics_req
  | Shutdown
  | Stats
  | Slowlog of int
  | Trace_of of int
  | Run of Service.request
  | Mutate of Service.mutation * bool

exception Bad of string

(* Mutation commands are positional: [addedge 3 7] / [addedge 3 7 1], with
   an optional trailing [trace] token. *)
let parse_mutation cmd rest =
  let toks =
    String.split_on_char ' ' rest |> List.filter (fun s -> s <> "")
  in
  let trace, toks =
    match List.rev toks with
    | "trace" :: r -> (true, List.rev r)
    | _ -> (false, toks)
  in
  let int_tok what s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | _ -> raise (Bad (Printf.sprintf "%s needs a non-negative integer, got %S" what s))
  in
  let mut =
    match (cmd, toks) with
    | "addedge", [ u; v ] ->
        Service.M_add_edge
          { u = int_tok "addedge <u>" u; v = int_tok "addedge <v>" v; elabel = 0 }
    | "addedge", [ u; v; el ] ->
        Service.M_add_edge
          {
            u = int_tok "addedge <u>" u;
            v = int_tok "addedge <v>" v;
            elabel = int_tok "addedge <elabel>" el;
          }
    | "addedge", _ -> raise (Bad "usage: addedge <u> <v> [<elabel>] [trace]")
    | "deledge", [ u; v ] ->
        Service.M_del_edge
          { u = int_tok "deledge <u>" u; v = int_tok "deledge <v>" v; elabel = 0 }
    | "deledge", [ u; v; el ] ->
        Service.M_del_edge
          {
            u = int_tok "deledge <u>" u;
            v = int_tok "deledge <v>" v;
            elabel = int_tok "deledge <elabel>" el;
          }
    | "deledge", _ -> raise (Bad "usage: deledge <u> <v> [<elabel>] [trace]")
    | "addvertex", [] -> Service.M_add_vertex { label = 0 }
    | "addvertex", [ l ] -> Service.M_add_vertex { label = int_tok "addvertex <label>" l }
    | "addvertex", _ -> raise (Bad "usage: addvertex [<label>] [trace]")
    | "delvertex", [ v ] -> Service.M_del_vertex { v = int_tok "delvertex <v>" v }
    | "delvertex", _ -> raise (Bad "usage: delvertex <v> [trace]")
    | "checkpoint", [] -> Service.M_checkpoint
    | "checkpoint", _ -> raise (Bad "usage: checkpoint [trace]")
    | _ -> assert false
  in
  Mutate (mut, trace)

let non_negative k v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | _ -> raise (Bad (Printf.sprintf "option %s needs a non-negative integer, got %S" k v))

let bad_option k = function
  | None -> raise (Bad (Printf.sprintf "bad option %S (expected key=value)" k))
  | Some _ -> raise (Bad (Printf.sprintf "unknown option %S" k))

let parse_options body opt =
  let len = String.length body in
  let rec go i =
    if i >= len then raise (Bad "missing q=<query>")
    else if body.[i] = ' ' then go (i + 1)
    else if i + 2 <= len && String.sub body i 2 = "q=" then
      (* q= consumes the rest of the line. *)
      String.sub body (i + 2) (len - i - 2)
    else begin
      let j = match String.index_from_opt body i ' ' with Some j -> j | None -> len in
      let tok = String.sub body i (j - i) in
      (match String.index_opt tok '=' with
      | None -> opt tok None
      | Some eq ->
          opt (String.sub tok 0 eq) (Some (String.sub tok (eq + 1) (String.length tok - eq - 1))));
      go j
    end
  in
  try Ok (go 0) with Bad m -> Error m

let parse_run rest =
  let timeout = ref None
  and max_rows = ref None
  and max_inter = ref None
  and fault_at = ref None
  and fault_all = ref false
  and collect = ref false
  and trace = ref false in
  (* Boolean options may appear as bare flags. *)
  let flag = function None -> true | Some v -> v = "1" || v = "true" in
  let opt k v =
    match (k, v) with
    | "timeout_ms", Some v -> timeout := Some (non_negative k v)
    | "max_rows", Some v -> max_rows := Some (non_negative k v)
    | "max_intermediate", Some v -> max_inter := Some (non_negative k v)
    | "fault_at", Some v -> fault_at := Some (non_negative k v)
    | "fault_all", v -> fault_all := flag v
    | "rows", v -> collect := flag v
    | "trace", v -> trace := flag v
    | _ -> bad_option k v
  in
  let ( let* ) = Result.bind in
  let* qtext = parse_options rest opt in
  let* query = parse_query qtext in
  Ok
    {
      (Service.request query) with
      Service.text = qtext;
      timeout_ms = !timeout;
      max_rows = !max_rows;
      max_intermediate = !max_inter;
      fault_at = !fault_at;
      fault_all = !fault_all;
      collect_rows = !collect;
      trace = !trace;
    }

let parse_request line =
  let line = String.trim line in
  match line with
  | "" -> Error "empty request"
  | "ping" -> Ok Ping
  | "metrics" -> Ok Metrics_req
  | "shutdown" -> Ok Shutdown
  | "stats" -> Ok Stats
  | "slowlog" -> Ok (Slowlog 10)
  | _ when String.length line > 8 && String.sub line 0 8 = "slowlog " -> (
      let v = String.trim (String.sub line 8 (String.length line - 8)) in
      match int_of_string_opt v with
      | Some n when n > 0 -> Ok (Slowlog n)
      | _ -> Error (Printf.sprintf "slowlog needs a positive count, got %S" v))
  | _ when String.length line > 6 && String.sub line 0 6 = "trace " -> (
      let v = String.trim (String.sub line 6 (String.length line - 6)) in
      let v =
        if String.length v > 3 && String.sub v 0 3 = "id=" then
          String.sub v 3 (String.length v - 3)
        else v
      in
      match int_of_string_opt v with
      | Some n when n > 0 -> Ok (Trace_of n)
      | _ -> Error (Printf.sprintf "trace needs id=<record id>, got %S" v))
  | _
    when List.exists
           (fun cmd ->
             line = cmd
             || String.length line > String.length cmd
                && String.sub line 0 (String.length cmd + 1) = cmd ^ " ")
           [ "addedge"; "deledge"; "addvertex"; "delvertex"; "checkpoint" ] -> (
      let cmd, rest =
        match String.index_opt line ' ' with
        | None -> (line, "")
        | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
      in
      try Ok (parse_mutation cmd rest) with Bad m -> Error m)
  | _ ->
      let run_body =
        if line = "run" then Some ""
        else if String.length line > 4 && String.sub line 0 4 = "run " then
          Some (String.sub line 4 (String.length line - 4))
        else None
      in
      let body_result =
        match run_body with
        | Some body -> parse_run body
        | None -> (
            (* A bare line is a plain run of that query. *)
            match parse_query line with
            | Ok q -> Ok (Service.request q)
            | Error e -> Error e)
      in
      Result.map (fun r -> Run r) body_result

let reply fields = Json.to_string (Json.Obj fields)
let ok = ("ok", Json.Bool true)
let pong = reply [ ok; ("type", Str "pong") ]
let shutting_down = reply [ ok; ("type", Str "shutting_down") ]

let rejected_reply reason =
  reply [ ("ok", Bool false); ("error", Str "rejected"); ("reason", Str reason) ]

let draining_resp = rejected_reply "draining"

let rows_json rows =
  Json.Arr (List.map (fun r -> Json.Arr (List.map (fun v -> Json.Int v) (Array.to_list r))) rows)

let seconds = Json.decimals 6

let ok_run ~(reply : Service.reply) =
  let r = reply.Service.result in
  Json.to_string
    (Obj
       ([ ok; ("id", Int reply.Service.id);
          ("outcome", Str (Gf.Governor.outcome_to_string r.Ladder.outcome));
          ("matches", Int r.Ladder.counters.Gf.Counters.output);
          ("attempts", Int r.Ladder.attempts); ("retries", Int r.Ladder.retries);
          ("degraded", Bool r.Ladder.degraded); ("rung", Str r.Ladder.rung);
          ("queue_s", seconds reply.Service.queue_s);
          ("exec_s", seconds reply.Service.exec_s);
          ("graph_version", Int reply.Service.graph_version) ]
       @ (if reply.Service.traced then
            [ ("traced", Json.Bool true); ("trace_id", Int reply.Service.record_id) ]
          else [])
       @ if reply.Service.rows = [] then [] else [ ("rows", rows_json reply.Service.rows) ]))

let rejected reason = rejected_reply (Service.reject_reason_to_string reason)

let error_resp ~kind ~detail =
  reply [ ("ok", Bool false); ("error", Str kind); ("detail", Str detail) ]

let ok_mutation (r : Service.mutation_reply) ~traced =
  reply
    ([ ok; ("type", Str "applied"); ("lsn", Int r.Service.m_lsn);
       ("applied", Bool r.Service.m_applied); ("version", Int r.Service.m_version);
       ("graph_version", Int r.Service.m_graph_version); ("durable", Int r.Service.m_durable) ]
    @ (match r.Service.m_vertex with Some v -> [ ("vertex", Json.Int v) ] | None -> [])
    @ if traced then [ ("trace_id", Json.Int r.Service.m_record) ] else [])

let mutation_rejected (e : Service.mutation_error) =
  match e with
  | Service.M_draining -> draining_resp
  | Service.M_read_only ->
      error_resp ~kind:"read_only" ~detail:"mutations need a server started with --data-dir"
  | Service.M_invalid d -> error_resp ~kind:"invalid" ~detail:d
  | Service.M_failed d -> error_resp ~kind:"wal_failed" ~detail:d

let metrics_resp exposition = reply [ ok; ("metrics", Str exposition) ]

let stats_resp (s : Service.stats) =
  let ms = Json.decimals 3 in
  reply
    [ ok; ("queue_depth", Int s.Service.s_queue_depth);
      ("breaker", Str (Breaker.state_to_string s.Service.s_breaker));
      ("draining", Bool s.Service.s_draining); ("admitted", Int s.Service.s_admitted);
      ("completed", Int s.Service.s_completed); ("truncated", Int s.Service.s_truncated);
      ("failed", Int s.Service.s_failed); ("retries", Int s.Service.s_retries);
      ("slowlog", Int s.Service.s_slowlog); ("p50_ms", ms s.Service.s_p50_ms);
      ("p95_ms", ms s.Service.s_p95_ms); ("p99_ms", ms s.Service.s_p99_ms);
      ("kernel", Str s.Service.s_kernel);
      ("graph_offheap_bytes", Int s.Service.s_graph_offheap_bytes);
      ("graph_heap_bytes", Int s.Service.s_graph_heap_bytes);
      ("graph_mapped", Bool s.Service.s_graph_mapped);
      ("graph_nbr_width", Int s.Service.s_graph_nbr_width);
      ("graph_version", Int s.Service.s_graph_version);
      ("wal_version", Int s.Service.s_wal_version); ("wal_durable", Int s.Service.s_wal_durable);
      ("wal_pending", Int s.Service.s_wal_pending); ("checkpoints", Int s.Service.s_checkpoints);
      ("mutations", Int s.Service.s_mutations);
      ("plan_cache_hits", Int s.Service.s_plan_cache_hits);
      ("plan_cache_misses", Int s.Service.s_plan_cache_misses);
      ("plan_cache_evictions", Int s.Service.s_plan_cache_evictions);
      ("plan_cache_replans", Int s.Service.s_plan_cache_replans);
      ("plan_cache_invalidations", Int s.Service.s_plan_cache_invalidations);
      ("plan_cache_feedbacks", Int s.Service.s_plan_cache_feedbacks);
      ("plan_cache_entries", Int s.Service.s_plan_cache_entries) ]

let slowlog_resp records =
  reply
    [ ok; ("count", Int (List.length records));
      ("records", Arr (List.map Gf.Recorder.record_to_json records)) ]

(* The recorder retains the Chrome trace as printed JSON; it is read back
   into a value so the reply nests it as a member, not as spliced text. *)
let trace_resp ~id json =
  match Json.parse json with
  | Ok trace -> reply [ ok; ("id", Int id); ("trace", trace) ]
  | Error e -> error_resp ~kind:"internal" ~detail:("retained trace unreadable: " ^ e)

let trace_not_found id =
  error_resp ~kind:"not_found" ~detail:(Printf.sprintf "no retained trace for id %d" id)
