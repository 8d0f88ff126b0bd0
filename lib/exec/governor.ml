(* Stdlib.min/max are polymorphic: on ints every call is a C compare. *)
let[@warning "-32"] min = Int.min and[@warning "-32"] max = Int.max

module Timing = Gf_util.Timing

type reason = Deadline | Output_limit | Intermediate_limit | Memory_limit | Cancelled
type error = { operator : string; detail : string }
type outcome = Completed | Truncated of reason | Failed of error

let reason_to_string = function
  | Deadline -> "deadline"
  | Output_limit -> "output limit"
  | Intermediate_limit -> "intermediate limit"
  | Memory_limit -> "memory limit"
  | Cancelled -> "cancelled"

let outcome_to_string = function
  | Completed -> "completed"
  | Truncated r -> Printf.sprintf "truncated (%s)" (reason_to_string r)
  | Failed { operator; detail } -> Printf.sprintf "failed (%s: %s)" operator detail

let pp_outcome fmt o = Format.pp_print_string fmt (outcome_to_string o)

type budget = {
  deadline_s : float option;
  max_output : int option;
  max_intermediate : int option;
  max_bytes : int option;
}

let unlimited =
  { deadline_s = None; max_output = None; max_intermediate = None; max_bytes = None }

let budget ?deadline_s ?max_output ?max_intermediate ?max_bytes () =
  { deadline_s; max_output; max_intermediate; max_bytes }

type fault = { at_tuple : int; operator : string }

(* Trip codes stored in [flag]; 0 = running. First CAS wins. *)
let c_deadline = 1
let c_output = 2
let c_intermediate = 3
let c_memory = 4
let c_cancelled = 5
let c_failed = 6

type t = {
  flag : int Atomic.t;
  deadline : float; (* absolute; [infinity] = unchecked (skips the clock read) *)
  out_cap : int; (* [max_int] = unchecked *)
  inter_cap : int;
  byte_cap : int;
  produced : int Atomic.t; (* global produced total, flushed in deltas at checks *)
  outputs : int Atomic.t; (* global output claims (only used under an output cap) *)
  bytes : int Atomic.t;
  fault : fault option;
  failure : error option Atomic.t;
}

exception Trip

let create ?fault budget =
  {
    flag = Atomic.make 0;
    deadline =
      (match budget.deadline_s with
      | None -> infinity
      | Some d -> Timing.now_s () +. d);
    out_cap = Option.value budget.max_output ~default:max_int;
    inter_cap = Option.value budget.max_intermediate ~default:max_int;
    byte_cap = Option.value budget.max_bytes ~default:max_int;
    produced = Atomic.make 0;
    outputs = Atomic.make 0;
    bytes = Atomic.make 0;
    fault;
    failure = Atomic.make None;
  }

let trip t code = ignore (Atomic.compare_and_set t.flag 0 code)
let cancel t = trip t c_cancelled

let fail t ~operator ~detail =
  if Atomic.compare_and_set t.failure None (Some { operator; detail }) then
    trip t c_failed

let tripped t = Atomic.get t.flag <> 0

let outcome t =
  match Atomic.get t.flag with
  | 0 -> Completed
  | 1 -> Truncated Deadline
  | 2 -> Truncated Output_limit
  | 3 -> Truncated Intermediate_limit
  | 4 -> Truncated Memory_limit
  | 5 -> Truncated Cancelled
  | _ -> (
      match Atomic.get t.failure with
      | Some e -> Failed e
      | None -> Failed { operator = "?"; detail = "failure without record" })

type handle = {
  shared : t;
  rows : Counters.t array; (* the domain's per-operator rows *)
  mutable fuel : int;
  mutable last_produced : int; (* produced count already flushed to [shared] *)
  mutable checks : int;
}

let cadence = 256
let handle t rows = { shared = t; rows; fuel = cadence; last_produced = 0; checks = 0 }

let flush_produced h =
  let p = Array.fold_left (fun acc (r : Counters.t) -> acc + r.Counters.produced) 0 h.rows in
  let d = p - h.last_produced in
  if d > 0 then begin
    ignore (Atomic.fetch_and_add h.shared.produced d);
    h.last_produced <- p
  end

let check h =
  h.fuel <- cadence;
  h.checks <- h.checks + 1;
  let t = h.shared in
  flush_produced h;
  if Atomic.get t.flag <> 0 then raise Trip;
  let total = Atomic.get t.produced in
  (match t.fault with
  | Some f when total >= f.at_tuple ->
      fail t ~operator:f.operator
        ~detail:(Printf.sprintf "injected fault at tuple %d" f.at_tuple)
  | _ -> ());
  if total > t.inter_cap then trip t c_intermediate;
  if t.deadline < infinity && Timing.now_s () > t.deadline then trip t c_deadline;
  if Atomic.get t.flag <> 0 then raise Trip

let tick h =
  h.fuel <- h.fuel - 1;
  if h.fuel <= 0 then check h

let fuel h = max 1 h.fuel

let tick_work h n =
  if n > 0 then begin
    h.fuel <- h.fuel - n;
    if h.fuel <= 0 then check h
  end

let claim_output h =
  let t = h.shared in
  if t.out_cap < max_int then begin
    let prev = Atomic.fetch_and_add t.outputs 1 in
    if prev >= t.out_cap then begin
      trip t c_output;
      raise Trip
    end;
    if prev + 1 >= t.out_cap then trip t c_output
  end

let claim_outputs h n =
  let t = h.shared in
  if t.out_cap = max_int then n
  else begin
    let prev = Atomic.fetch_and_add t.outputs n in
    if prev + n >= t.out_cap then trip t c_output;
    max 0 (min n (t.out_cap - prev))
  end

let add_bytes h n =
  let t = h.shared in
  if t.byte_cap < max_int then begin
    let b = Atomic.fetch_and_add t.bytes n + n in
    if b > t.byte_cap then trip t c_memory
  end

let finish h c =
  flush_produced h;
  c.Counters.gov_checks <- c.Counters.gov_checks + h.checks
