module Bitset = Gf_util.Bitset
module Int_vec = Gf_util.Int_vec
module Sorted = Gf_util.Sorted
module Graph = Gf_graph.Graph
module Query = Gf_query.Query
module Plan = Gf_plan.Plan
module Exec = Gf_exec.Exec
module Counters = Gf_exec.Counters
module Governor = Gf_exec.Governor
module Catalog = Gf_catalog.Catalog
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
  target : int;
  target_label : int;
  descriptors : (int * Graph.direction * int) array; (* tuple position, dir, elabel *)
  est_sizes : float array; (* catalogue average size per descriptor *)
  est_total : float;
  mu : float;
  cover_prefix : int; (* smallest j such that bound + first j targets cover all
                         descriptor sources; 0 = bound alone *)
  (* runtime intersection-cache state *)
  srcs : int array;
  last_srcs : int array;
  lists : Sorted.lists;
  result : Int_vec.t;
  mutable cache_valid : bool;
}

type ordering = {
  steps : step array;
  out_perm : int array; (* fixed-schema position -> partial-tuple position *)
  mutable routed : int;
}

let build_ordering cat model q ~anchor_vars ~bound_set ~fixed_schema order =
  let nb = Array.length anchor_vars in
  let pos_of = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace pos_of v i) anchor_vars;
  Array.iteri (fun j v -> Hashtbl.replace pos_of v (nb + j)) order;
  let prefix = ref bound_set in
  let steps =
    Array.mapi
      (fun j v ->
        let child = !prefix in
        let descriptors = ref [] in
        Array.iter
          (fun (e : Query.edge) ->
            if e.dst = v && Bitset.mem e.src child then
              descriptors := (e.src, Graph.Fwd, e.label) :: !descriptors
            else if e.src = v && Bitset.mem e.dst child then
              descriptors := (e.dst, Graph.Bwd, e.label) :: !descriptors)
          q.Query.edges;
        let descriptors = Array.of_list (List.rev !descriptors) in
        let sub, map = Query.induced q (Bitset.add v child) in
        let sub_pos = Hashtbl.create 8 in
        Array.iteri (fun i ov -> Hashtbl.replace sub_pos ov i) map;
        let vpos = Hashtbl.find sub_pos v in
        let est_sizes =
          Array.map
            (fun (src, dir, el) ->
              Catalog.descriptor_size cat sub ~new_vertex:vpos
                ~src:(Hashtbl.find sub_pos src) ~dir ~elabel:el)
            descriptors
        in
        let cover_prefix =
          let sources =
            Array.fold_left (fun s (src, _, _) -> Bitset.add src s) Bitset.empty descriptors
          in
          let rec find i covered =
            if Bitset.subset sources covered then i
            else if i >= j then j
            else find (i + 1) (Bitset.add order.(i) covered)
          in
          find 0 bound_set
        in
        let nd = Array.length descriptors in
        let step =
          {
            target = v;
            target_label = Query.vlabel q v;
            descriptors =
              Array.map (fun (src, dir, el) -> (Hashtbl.find pos_of src, dir, el)) descriptors;
            est_sizes;
            est_total = Array.fold_left ( +. ) 0.0 est_sizes;
            mu = Cost_model.mu model ~child ~v;
            cover_prefix;
            srcs = Array.make nd (-1);
            last_srcs = Array.make nd (-1);
            lists = Sorted.lists nd;
            result = Int_vec.create ~capacity:32 ();
            cache_valid = false;
          }
        in
        prefix := Bitset.add v !prefix;
        step)
      order
  in
  let out_perm =
    Array.map (fun v -> Hashtbl.find pos_of v) fixed_schema
  in
  { steps; out_perm; routed = 0 }

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
          (fun i (pos, dir, el) ->
            let actual =
              float_of_int
                (Graph.partition_size g dir tuple.(pos) ~elabel:el ~nlabel:step.target_label)
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
            let orderings =
              List.map
                (fun o ->
                  build_ordering cat model q ~anchor_vars ~bound_set ~fixed_schema o)
                orders
            in
            incr seg_count;
            cand_count := !cand_count + List.length orderings;
            all_orderings := orderings @ !all_orderings;
            let orderings = Array.of_list orderings in
            let anchor_driver = recurse env anchor in
            let nb = Array.length anchor_vars in
            let width = Array.length fixed_schema in
            let partial = Array.make width 0 in
            let out_buf = Array.make width 0 in
            let c = env.Exec.c in
            Some
              (fun sink ->
                Array.iter
                  (fun (ord : ordering) ->
                    Array.iter
                      (fun st ->
                        st.cache_valid <- false;
                        Array.fill st.last_srcs 0 (Array.length st.last_srcs) (-1))
                      ord.steps)
                  orderings;
                anchor_driver (fun t ->
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
                    Array.blit t 0 partial 0 nb;
                    let nsteps = Array.length ord.steps in
                    let rec exec_step j =
                      let st = ord.steps.(j) in
                      let nd = Array.length st.descriptors in
                      let same = ref st.cache_valid in
                      for i = 0 to nd - 1 do
                        let pos, _, _ = st.descriptors.(i) in
                        let s = partial.(pos) in
                        st.srcs.(i) <- s;
                        if s <> st.last_srcs.(i) then same := false
                      done;
                      if env.Exec.cache && !same then c.Counters.cache_hits <- c.Counters.cache_hits + 1
                      else begin
                        for i = 0 to nd - 1 do
                          let _, dir, el = st.descriptors.(i) in
                          Graph.neighbours_into env.Exec.g dir st.srcs.(i) ~elabel:el
                            ~nlabel:st.target_label st.lists i;
                          c.Counters.icost <-
                            c.Counters.icost + st.lists.hi.(i) - st.lists.lo.(i)
                        done;
                        c.Counters.intersections <- c.Counters.intersections + 1;
                        Int_vec.clear st.result;
                        Sorted.intersect ~leapfrog:env.Exec.leapfrog st.result st.lists;
                        Array.blit st.srcs 0 st.last_srcs 0 nd;
                        st.cache_valid <- true
                      end;
                      let n = Int_vec.length st.result in
                      for i = 0 to n - 1 do
                        let w = Int_vec.unsafe_get st.result i in
                        (* Injectivity under [distinct]: a candidate equal to
                           any already-bound vertex of this partial match is
                           dropped, matching the structural E/I operator. *)
                        if not (env.Exec.distinct && Exec.tuple_contains partial (nb + j) w)
                        then begin
                          partial.(nb + j) <- w;
                          if j + 1 = nsteps then begin
                            (* Permute back to the fixed plan schema. *)
                            for p = 0 to width - 1 do
                              out_buf.(p) <- partial.(ord.out_perm.(p))
                            done;
                            c.Counters.produced <- c.Counters.produced + 1;
                            Governor.tick env.Exec.gov c;
                            sink out_buf
                          end
                          else begin
                            c.Counters.produced <- c.Counters.produced + 1;
                            Governor.tick env.Exec.gov c;
                            exec_step (j + 1)
                          end
                        end
                      done
                    in
                    exec_step 0))
        )
    | _ -> None
  in
  let counters, _ = Exec.run_gov ~rewrite ?cache ?distinct ?gov ?prof ?sink g plan in
  let used = List.length (List.filter (fun o -> o.routed > 0) !all_orderings) in
  ( counters,
    {
      segments = !seg_count;
      candidate_orderings = !cand_count;
      tuples_routed = !routed_count;
      orderings_used = used;
    } )
