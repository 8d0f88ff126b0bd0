module Bitset = Gf_util.Bitset
module Buf = Gf_util.Buf
module Sorted = Gf_util.Sorted
module Graph = Gf_graph.Graph
module Query = Gf_query.Query
module Plan = Gf_plan.Plan
module Exec = Gf_exec.Exec
module Counters = Gf_exec.Counters
module Governor = Gf_exec.Governor
module Cost_model = Gf_opt.Cost_model

type stats = {
  segments : int;
  candidate_orderings : int;
  tuples_routed : int;
  orderings_used : int;
}

let adaptable p = Plan.max_ei_chain p >= 2

(* Split a chain of Extend nodes: returns the anchor sub-plan and the
   extended targets in extension order. *)
let rec split_chain = function
  | Plan.Extend { child; target; _ } ->
      let anchor, targets = split_chain child in
      (anchor, targets @ [ target ])
  | p -> (p, [])

(* One E/I step of a candidate ordering. *)
type step = {
  target_label : int;
  descriptors : Plan.descriptor array; (* positions into the partial tuple *)
  est_sizes : float array; (* the cost model's estimated size per descriptor *)
  est_total : float;
  mu : float;
  cover_prefix : int; (* smallest j such that bound + first j targets cover all
                         descriptor sources; 0 = bound alone *)
  ext : Exec.extend; (* the structural E/I operator, counting into the chain root *)
}

type ordering = {
  steps : step array;
  out_perm : int array; (* fixed-schema position -> partial-tuple position *)
  mutable routed : int;
}

let build_ordering env row model q ~anchor_vars ~bound_set ~fixed_schema order =
  (* The partial tuple's columns: the anchor's, then the order's targets. *)
  let columns = Array.append anchor_vars order in
  let nb = Array.length anchor_vars in
  let prefix = ref bound_set in
  let prev = ref None in
  let steps =
    Array.mapi
      (fun j v ->
        let child = !prefix in
        let descriptors = Plan.descriptors q (Array.sub columns 0 (nb + j)) v in
        let est_sizes = Cost_model.descriptor_sizes model ~child ~v in
        let cover_prefix =
          let sources =
            Array.fold_left
              (fun s (d : Plan.descriptor) -> Bitset.add columns.(d.pos) s)
              Bitset.empty descriptors
          in
          let rec find i covered =
            if Bitset.subset sources covered then i
            else if i >= j then j
            else find (i + 1) (Bitset.add order.(i) covered)
          in
          find 0 bound_set
        in
        let target_label = Query.vlabel q v in
        prefix := Bitset.add v child;
        let ext = Exec.extend ?from:!prev env row ~target_label ~width:(nb + j) descriptors in
        prev := Some ext;
        {
          target_label;
          descriptors;
          est_sizes;
          est_total = Array.fold_left ( +. ) 0.0 est_sizes;
          mu = Cost_model.mu model ~child ~v;
          cover_prefix;
          ext;
        })
      order
  in
  let column v =
    let rec find i = if columns.(i) = v then i else find (i + 1) in
    find 0
  in
  { steps; out_perm = Array.map column fixed_schema; routed = 0 }

(* Per-tuple cost re-evaluation (Example 6.2): replace the first step's
   estimated list sizes with the actual sizes of the anchor tuple's
   adjacency lists, scale its selectivity by the observed ratios, and
   re-derive downstream cardinalities from there. *)
let reestimate g ord tuple =
  let cost = ref 0.0 in
  let prefix_cards = Array.make (Array.length ord.steps + 1) 1.0 in
  Array.iteri
    (fun j step ->
      if j = 0 then begin
        let ratio = ref 1.0 in
        let actual_total = ref 0.0 in
        Array.iteri
          (fun i (d : Plan.descriptor) ->
            let actual =
              float_of_int
                (Graph.partition_size g d.dir tuple.(d.pos) ~elabel:d.elabel
                   ~nlabel:step.target_label)
            in
            actual_total := !actual_total +. actual;
            ratio := !ratio *. (actual /. Float.max step.est_sizes.(i) 0.5))
          step.descriptors;
        cost := !cost +. !actual_total;
        prefix_cards.(1) <- Float.max 0.0 (step.mu *. !ratio)
      end
      else begin
        let mult =
          Float.min prefix_cards.(step.cover_prefix) prefix_cards.(j)
        in
        cost := !cost +. (mult *. step.est_total);
        prefix_cards.(j + 1) <- prefix_cards.(j) *. step.mu
      end)
    ord.steps;
  !cost

let run ?cache ?distinct ?gov ?prof ?sink cat g q plan =
  let model = Cost_model.create cat q in
  let seg_count = ref 0 in
  let cand_count = ref 0 in
  let routed_count = ref 0 in
  let all_orderings : ordering list ref = ref [] in
  let rewrite recurse (env : Exec.env) node =
    match node with
    | Plan.Extend _ when Plan.max_ei_chain node >= 2 && adaptable node -> (
        let anchor, targets = split_chain node in
        match targets with
        | [] | [ _ ] -> None
        | _ ->
            let anchor_vars = Plan.vars anchor in
            let bound_set = Plan.var_set anchor in
            let fixed_schema =
              Array.of_list (Array.to_list (Plan.vars node))
            in
            let fixed_targets =
              Array.sub fixed_schema (Array.length anchor_vars) (List.length targets)
            in
            (* Candidate orderings: all connected orders of the chain's
               vertex set extending the anchor. *)
            let full = Array.fold_left (fun s v -> Bitset.add v s) bound_set fixed_targets in
            let sub, map = Query.induced q full in
            let bound_sub =
              Array.to_list map
              |> List.mapi (fun i ov -> (i, ov))
              |> List.filter (fun (_, ov) -> Bitset.mem ov bound_set)
              |> List.map fst |> Bitset.of_list
            in
            let orders =
              Query.connected_orders_extending sub ~bound:bound_sub
              |> List.map (fun o -> Array.map (fun i -> map.(i)) o)
            in
            (* All segment work, whatever ordering a tuple takes, is charged
               to the chain root's row. *)
            let row = Exec.row env node in
            let orderings =
              List.map
                (fun o ->
                  build_ordering env row model q ~anchor_vars ~bound_set ~fixed_schema o)
                orders
            in
            incr seg_count;
            cand_count := !cand_count + List.length orderings;
            all_orderings := orderings @ !all_orderings;
            let orderings = Array.of_list orderings in
            let anchor_driver = recurse env anchor in
            let nb = Array.length anchor_vars in
            let width = Array.length fixed_schema in
            let out_buf = Array.make width 0 in
            let out_sink = ref ignore in
            (* An ordering's steps chained group to group; the last
               step's groups are taken apart, permuted back to the fixed
               plan schema and emitted. *)
            let feed (ord : ordering) =
              let nsteps = Array.length ord.steps in
              let last (g : Exec.group) =
                let t = g.tuple in
                for j = g.first to g.last - 1 do
                  t.(width - 2) <- g.keys.(j);
                  for i = Sorted.run_lo g j to Sorted.run_hi g j - 1 do
                    t.(width - 1) <- Buf.unsafe_get g.cands i;
                    for p = 0 to width - 1 do
                      out_buf.(p) <- t.(ord.out_perm.(p))
                    done;
                    !out_sink out_buf
                  done
                done
              in
              let rec from j =
                let next = if j + 1 = nsteps then last else from (j + 1) in
                Exec.extend_group ord.steps.(j).ext ~count:false next
              in
              from 0
            in
            let feeds = Array.map feed orderings in
            let one =
              { Exec.tuple = [||]; cands = Buf.empty; keys = [| 0 |]; starts = [| 0 |]; ends = [| 0 |];
                first = 0; last = 1; lo = 0; hi = 0 }
            in
            Some
              (Exec.of_tuples env @@ fun sink ->
               out_sink := sink;
               Array.iter
                 (fun (ord : ordering) -> Array.iter (fun st -> Exec.reset_extend st.ext) ord.steps)
                 orderings;
               anchor_driver (fun (g : Exec.group) ->
                   let t = g.tuple in
                   for j = g.first to g.last - 1 do
                     t.(nb - 2) <- g.keys.(j);
                     for i = Sorted.run_lo g j to Sorted.run_hi g j - 1 do
                       t.(nb - 1) <- Buf.unsafe_get g.cands i;
                       incr routed_count;
                       (* Route to the cheapest re-estimated ordering. *)
                       let best = ref 0 and best_cost = ref infinity in
                       Array.iteri
                         (fun i ord ->
                           let est = reestimate env.Exec.g ord t in
                           if est < !best_cost then begin
                             best_cost := est;
                             best := i
                           end)
                         orderings;
                       let ord = orderings.(!best) in
                       ord.routed <- ord.routed + 1;
                       (* The anchor tuple as a group of one run of length
                          one through the ordering's E/I steps. *)
                       if one.tuple != t then one.tuple <- t;
                       if one.cands != g.cands then one.cands <- g.cands;
                       one.keys.(0) <- g.keys.(j);
                       one.starts.(0) <- g.starts.(j);
                       one.ends.(0) <- g.ends.(j);
                       one.lo <- i;
                       one.hi <- i + 1;
                       feeds.(!best) one
                     done
                   done)))
    | _ -> None
  in
  let counters, rows, _ = Exec.run_rows ~rewrite ?cache ?distinct ?gov ?prof ?sink g plan in
  let used = List.length (List.filter (fun o -> o.routed > 0) !all_orderings) in
  ( counters,
    rows,
    {
      segments = !seg_count;
      candidate_orderings = !cand_count;
      tuples_routed = !routed_count;
      orderings_used = used;
    } )
