module Plan = Gf_plan.Plan
module Timing = Gf_util.Timing

type kind = Scan | Extend | Hash_join

let kind_to_string = function
  | Scan -> "scan"
  | Extend -> "extend"
  | Hash_join -> "hash-join"

let kind_of = function
  | Plan.Scan _ -> Scan
  | Plan.Extend _ -> Extend
  | Plan.Hash_join _ -> Hash_join

type op = { id : int; label : string; kind : kind; depth : int; mutable time_s : float }

(* Self time by *boundary switching*: the executor is a stack of nested
   closures, so at any instant exactly one operator is doing work. [cur]
   names it (-1 = outside any operator: scheduler idle loops, the user
   sink). Each switch charges the wall time since the previous switch to
   the operator that was current. *)
type t = { plan : Plan.t; ops : op array; mutable cur : int; mutable last_t : float }

let create plan =
  {
    plan;
    ops =
      Array.mapi
        (fun i (n, depth) -> { id = i; label = Plan.op_label n; kind = kind_of n; depth; time_s = 0.0 })
        (Plan.operators plan);
    cur = -1;
    last_t = 0.0;
  }

let fresh t = create t.plan
let plan t = t.plan
let ops t = t.ops

let enter t id =
  let now = Timing.now_s () in
  if t.cur >= 0 then begin
    let o = t.ops.(t.cur) in
    o.time_s <- o.time_s +. (now -. t.last_t)
  end;
  t.last_t <- now;
  t.cur <- id

let start t =
  t.cur <- -1;
  t.last_t <- Timing.now_s ()

let finish t = enter t (-1)

let wrap t id driver =
 fun sink ->
  let prev = t.cur in
  enter t id;
  driver (fun tuple ->
      let inner = t.cur in
      enter t prev;
      sink tuple;
      enter t inner);
  enter t prev

let merge_into ~into src =
  if Array.length into.ops <> Array.length src.ops then
    invalid_arg "Profile.merge_into: profiles of different plans";
  Array.iteri (fun i (o : op) -> into.ops.(i).time_s <- into.ops.(i).time_s +. o.time_s) src.ops
