module Bitset = Gf_util.Bitset
module Plan = Gf_plan.Plan
module Catalog = Gf_catalog.Catalog
module Profile = Gf_exec.Profile
module Counters = Gf_exec.Counters

type row = {
  id : int;
  label : string;
  kind : Profile.kind;
  depth : int;
  est_card : float;
  act_card : int;
  card_q : float;
  est_cost : float;
  act_cost : float;
  cost_q : float option;
  time_s : float;
  cache_hits : int;
  intersections : int;
  hj_build : int;
  hj_probe : int;
}

(* The chain of an Extend node, for [Cost_model.extension_icost]: vertex-set
   prefixes from the anchor of the E/I chain it roots (a SCAN pair or a
   HASH-JOIN output) up to its child — anchor first, child last, matching
   how the planner builds chains while enumerating orders. *)
let chain_below = function
  | Plan.Extend { child; _ } ->
      let rec down acc n =
        match n with
        | Plan.Extend { child = c; _ } -> down (Plan.var_set n :: acc) c
        | anchor -> Plan.var_set anchor :: acc
      in
      down [] child
  | _ -> []

type estimates = { plan : Plan.t; weights : Cost.weights; ops : (float * float) array }

let estimates model plan =
  let op (node, _) =
    let est_cost =
      match node with
      | Plan.Scan _ -> 0.0
      | Plan.Extend { target; child; _ } ->
          Cost_model.extension_icost model ~chain:(Array.of_list (chain_below node))
            ~child:(Plan.var_set child) ~v:target
      | Plan.Hash_join { build; probe; _ } ->
          Cost_model.hash_join_cost model (Plan.var_set build) (Plan.var_set probe)
    in
    (Cost_model.card model (Plan.var_set node), est_cost)
  in
  { plan; weights = Cost_model.weights model; ops = Array.map op (Plan.operators plan) }

let rows ests (counts : Counters.t array) prof =
  let ops = Plan.operators ests.plan in
  if Array.length counts <> Array.length ops then
    invalid_arg "Explain.rows: counts rows of a different plan";
  let time =
    match prof with
    | None -> fun _ -> 0.0
    | Some p ->
        if not (Profile.plan p == ests.plan) then
          invalid_arg "Explain.rows: profile belongs to a different plan";
        fun id -> (Profile.ops p).(id).Profile.time_s
  in
  let w = ests.weights in
  Array.mapi
    (fun id (node, depth) ->
      let o = counts.(id) in
      let kind = Profile.kind_of node in
      let est_card, est_cost = ests.ops.(id) in
      let q_error act = Some (Catalog.q_error ~estimate:est_cost ~truth:act) in
      let act_cost, cost_q =
        match kind with
        | Profile.Scan -> (0.0, None)
        | Profile.Extend ->
            let act = float_of_int o.icost in
            (act, q_error act)
        | Profile.Hash_join ->
            (* Actual cost under the same weights the model uses (Section
               4.2's w1/w2): build and probe tuples that actually flowed
               through this join's table. *)
            let act =
              (w.Cost.w1 *. float_of_int o.hj_build_tuples)
              +. (w.Cost.w2 *. float_of_int o.hj_probe_tuples)
            in
            (act, q_error act)
      in
      {
        id;
        label = Plan.op_label node;
        kind;
        depth;
        est_card;
        act_card = o.produced;
        card_q = Catalog.q_error ~estimate:est_card ~truth:(float_of_int o.produced);
        est_cost;
        act_cost;
        cost_q;
        time_s = time id;
        cache_hits = o.cache_hits;
        intersections = o.intersections;
        hj_build = o.hj_build_tuples;
        hj_probe = o.hj_probe_tuples;
      })
    ops
  |> Array.to_list

let fmt_f v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3g" v

let fmt_q = function
  | q when Float.is_nan q -> "-"
  | q when not (Float.is_finite q) -> if q > 0.0 then "inf" else "-inf"
  | q -> Printf.sprintf "%.2f" q

let to_string rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-3s %-28s %12s %12s %7s %12s %12s %7s %9s %s\n" "op" "operator"
       "est.card" "act.card" "q-err" "est.cost" "act.cost" "q-err" "time" "notes");
  List.iter
    (fun r ->
      let label =
        let s = String.make (2 * r.depth) ' ' ^ r.label in
        if String.length s > 28 then String.sub s 0 28 else s
      in
      let notes =
        match r.kind with
        | Profile.Extend ->
            Printf.sprintf "hits=%d inter=%d" r.cache_hits r.intersections
        | Profile.Hash_join -> Printf.sprintf "build=%d probe=%d" r.hj_build r.hj_probe
        | Profile.Scan -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "%-3d %-28s %12s %12d %7s %12s %12s %7s %8.3fs %s\n" r.id label
           (fmt_f r.est_card) r.act_card (fmt_q r.card_q) (fmt_f r.est_cost)
           (fmt_f r.act_cost)
           (match r.cost_q with None -> "-" | Some q -> fmt_q q)
           r.time_s notes))
    rows;
  Buffer.contents buf

let json_escape = Gf_util.Json.escape

let rows_to_json rows =
  let open Gf_util.Json in
  let row r =
    Obj
      [ ("id", Int r.id); ("operator", Str r.label);
        ("kind", Str (Profile.kind_to_string r.kind)); ("depth", Int r.depth);
        ("est_card", Float r.est_card); ("act_card", Int r.act_card);
        ("card_q_error", Float r.card_q); ("est_cost", Float r.est_cost);
        ("act_cost", Float r.act_cost);
        ("cost_q_error", match r.cost_q with None -> Null | Some q -> Float q);
        ("time_s", Float r.time_s); ("cache_hits", Int r.cache_hits);
        ("intersections", Int r.intersections); ("hj_build", Int r.hj_build);
        ("hj_probe", Int r.hj_probe) ]
  in
  Arr (List.map row rows)
