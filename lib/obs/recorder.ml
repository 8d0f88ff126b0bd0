(* Always-on flight recorder: a bounded ring of recent query records plus
   a small set of retained full traces. Recording is once per query and
   cross-thread (service workers), so a mutex is fine here — unlike span
   recording, which is per-domain and lock-free. *)

type record = {
  id : int;
  query : string;
  plan : string; (* plan signature / digest *)
  outcome : string;
  latency_s : float;
  queue_s : float;
  rung : string;
  attempts : int;
  retries : int;
  top_ops : (string * float) list; (* label, self seconds; traced runs only *)
  traced : bool;
  slow : bool;
  at_s : float;
}

type t = {
  cap : int;
  retain : int;
  slow_s : float;
  m : Mutex.t;
  ring : record option array;
  mutable n : int; (* total records; slot = n mod cap *)
  mutable next_id : int;
  (* Retained traces: [recent] is a FIFO of the last [retain] traced
     requests; [slow] pins traces whose latency crossed [slow_s] so a bad
     query survives later traffic. Both bounded by [retain]. *)
  mutable recent : (int * string) list;
  mutable slow_traces : (int * string) list;
}

let create ?(capacity = 256) ?(retain = 8) ?(slow_s = 0.25) () =
  {
    cap = max 1 capacity;
    retain = max 1 retain;
    slow_s;
    m = Mutex.create ();
    ring = Array.make (max 1 capacity) None;
    n = 0;
    next_id = 1;
    recent = [];
    slow_traces = [];
  }

let slow_threshold t = t.slow_s

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let truncate_list k l = List.filteri (fun i _ -> i < k) l

let record t ~query ~plan ~outcome ~latency_s ~queue_s ~rung ~attempts ~retries ~top_ops ~traced
    ?trace_json () =
  locked t (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let slow = latency_s >= t.slow_s in
      let r =
        {
          id;
          query;
          plan;
          outcome;
          latency_s;
          queue_s;
          rung;
          attempts;
          retries;
          top_ops;
          traced;
          slow;
          at_s = Unix.gettimeofday ();
        }
      in
      t.ring.(t.n mod t.cap) <- Some r;
      t.n <- t.n + 1;
      (match trace_json with
      | Some j when traced ->
          t.recent <- truncate_list t.retain ((id, j) :: t.recent);
          if slow then t.slow_traces <- truncate_list t.retain ((id, j) :: t.slow_traces)
      | _ -> ());
      id)

let recent t k =
  locked t (fun () ->
      let stored = min t.n t.cap in
      let rec go i acc =
        if i < 0 || List.length acc >= k then acc
        else
          match t.ring.((t.n - stored + i) mod t.cap) with
          | Some r -> go (i - 1) (acc @ [ r ])
          | None -> go (i - 1) acc
      in
      (* newest first *)
      go (stored - 1) [])

let length t = locked t (fun () -> min t.n t.cap)

let find_trace t id =
  locked t (fun () ->
      match List.assoc_opt id t.slow_traces with
      | Some j -> Some j
      | None -> List.assoc_opt id t.recent)

let retained_ids t =
  locked t (fun () ->
      let ids = List.map fst t.slow_traces @ List.map fst t.recent in
      List.sort_uniq compare ids)

let record_to_json r =
  let open Gf_util.Json in
  let op (l, s) = Obj [ ("op", Str l); ("self_s", decimals 6 s) ] in
  Obj
    [ ("id", Int r.id); ("query", Str r.query); ("plan", Str r.plan); ("outcome", Str r.outcome);
      ("latency_s", decimals 6 r.latency_s); ("queue_s", decimals 6 r.queue_s);
      ("rung", Str r.rung); ("attempts", Int r.attempts); ("retries", Int r.retries);
      ("traced", Bool r.traced); ("slow", Bool r.slow); ("top_ops", Arr (List.map op r.top_ops)) ]
