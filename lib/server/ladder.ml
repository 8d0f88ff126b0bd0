module Gf = Graphflow
module Governor = Gf.Governor
module Counters = Gf.Counters

type config = {
  domains : int;
  budget : Governor.budget;
  degraded_budget : Governor.budget;
  backoff_base_s : float;
  backoff_cap_s : float;
}

let default_config =
  {
    domains = 1;
    budget = Governor.unlimited;
    degraded_budget =
      Governor.budget ~deadline_s:2.0 ~max_output:10_000 ~max_intermediate:1_000_000 ();
    backoff_base_s = 0.05;
    backoff_cap_s = 1.0;
  }

type rung = { name : string; domains : int; budget : Governor.budget }

let rungs (cfg : config) =
  let tail =
    [
      { name = "sequential"; domains = 1; budget = cfg.budget };
      { name = "degraded"; domains = 1; budget = cfg.degraded_budget };
    ]
  in
  if cfg.domains > 1 then
    { name = "parallel"; domains = cfg.domains; budget = cfg.budget } :: tail
  else tail

type result = {
  outcome : Governor.outcome;
  counters : Counters.t;
  plan : Gf.Plan.t option;
  attempts : int;
  retries : int;
  degraded : bool;
  rung : string;
  backoffs : float list;
}

let planner = "planner"
let rejected r = r.rung = planner

let backoff_delay cfg rng attempt =
  let base = cfg.backoff_base_s *. (2.0 ** float_of_int attempt) in
  let capped = Float.min base cfg.backoff_cap_s in
  (* Jitter in [0.5, 1.0) of the capped delay, from the caller's seeded
     stream — deterministic under a fixed seed. *)
  capped *. (0.5 +. Gf.Rng.float rng 0.5)

let run ?(sleep = Unix.sleepf) ?(now = Unix.gettimeofday)
    ?(attach = fun _ -> fun () -> ()) ?fault ?(fault_attempts = 1) ?part ?sink
    ?trace ?tbuf ~rng cfg db q =
  let rungs = rungs cfg in
  (* A sharded request is the parallelism unit itself: every worker must
     execute the same sequential plan for disjoint ranges to union exactly,
     so the parallel rung is skipped. *)
  let rungs =
    if part = None then rungs else List.filter (fun r -> r.name <> "parallel") rungs
  in
  let started = now () in
  (* Deadline-aware backoff: never sleep past the point where the retry is
     guaranteed to trip the attempt budget's deadline on arrival. *)
  let clamp_to_deadline d =
    match cfg.budget.Governor.deadline_s with
    | None -> d
    | Some dl -> Float.max 0. (Float.min d (started +. dl -. now ()))
  in
  let total = List.length rungs in
  let backoffs = ref [] in
  let rec go attempt = function
    | [] -> assert false
    | rung :: rest ->
        let fault = if attempt < fault_attempts then fault else None in
        let gov = Governor.create ?fault rung.budget in
        let detach = attach gov in
        (* Buffer this attempt's rows; flush only if the attempt is
           accepted, so a failed attempt leaks nothing downstream. *)
        let buffered = ref [] in
        let attempt_sink =
          Option.map
            (fun _ -> fun tuple -> buffered := Array.copy tuple :: !buffered)
            sink
        in
        (match tbuf with
        | Some b ->
            Gf.Trace.begin_span ~cat:"ladder"
              ~args:
                [ ("rung", Gf.Trace.Str rung.name);
                  ("attempt", Int (attempt + 1));
                  ("domains", Int rung.domains);
                ]
              b "attempt"
        | None -> ());
        let plan, c, outcome =
          Fun.protect
            ~finally:(fun () -> detach ())
            (fun () ->
              match Gf.Db.prepare ?trace db q with
              | exception Gf.Planner.No_plan detail ->
                  (None, Gf.Counters.create (), Governor.Failed { operator = planner; detail })
              | prepared ->
                  let c, outcome =
                    Gf.Db.run_gov ~prepared ~domains:rung.domains ?scan_part:part ~gov ?trace
                      ?sink:attempt_sink db q
                  in
                  (Some (Gf.Db.prepared_plan prepared), c, outcome))
        in
        (match tbuf with
        | Some b ->
            Gf.Trace.end_span
              ~args:[ ("outcome", Gf.Trace.Str (Governor.outcome_to_string outcome)) ]
              b
        | None -> ());
        let finish ~flush ~degraded =
          (match sink with
          | Some push when flush -> List.iter push (List.rev !buffered)
          | _ -> ());
          {
            outcome;
            counters = c;
            plan;
            attempts = attempt + 1;
            retries = attempt;
            degraded;
            rung = (if Option.is_none plan then planner else rung.name);
            backoffs = List.rev !backoffs;
          }
        in
        match outcome with
        | _ when Option.is_none plan ->
            (* The planner rejects the query itself: every rung would too. *)
            finish ~flush:false ~degraded:false
        | Governor.Completed -> finish ~flush:true ~degraded:(rung.name = "degraded")
        | Governor.Truncated Governor.Cancelled ->
            (* The service is draining: stop immediately, deliver nothing. *)
            finish ~flush:false ~degraded:false
        | Governor.Truncated _ ->
            (* A truncated answer is the degraded response we were after —
               retrying under the same budget would truncate again. *)
            finish ~flush:true ~degraded:true
        | Governor.Failed _ ->
            if attempt + 1 >= total then
              (* Out of rungs: report the failure, leak no partial rows. *)
              finish ~flush:false ~degraded:false
            else begin
              let d = clamp_to_deadline (backoff_delay cfg rng attempt) in
              backoffs := d :: !backoffs;
              (match tbuf with
              | Some b ->
                  Gf.Trace.span ~cat:"ladder"
                    ~args:[ ("delay_ms", Gf.Trace.Float (d *. 1e3)) ]
                    b "backoff"
                    (fun () -> sleep d)
              | None -> sleep d);
              go (attempt + 1) rest
            end
  in
  go 0 rungs
