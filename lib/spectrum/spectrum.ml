module Bitset = Gf_util.Bitset
module Query = Gf_query.Query
module Plan = Gf_plan.Plan
module Exec = Gf_exec.Exec
module Counters = Gf_exec.Counters

type family = Wco | Bj | Hybrid

let family_to_string = function Wco -> "W" | Bj -> "B" | Hybrid -> "H"

type entry = {
  plan : Plan.t;
  family : family;
  seconds : float;
  counters : Counters.t;
}

type t = { entries : entry list; capped : bool }

let rec count_ops = function
  | Plan.Scan _ -> (0, 0)
  | Plan.Extend { child; _ } ->
      let e, j = count_ops child in
      (e + 1, j)
  | Plan.Hash_join { build; probe; _ } ->
      let e1, j1 = count_ops build and e2, j2 = count_ops probe in
      (e1 + e2, j1 + j2 + 1)

let classify p =
  match count_ops p with
  | _, 0 -> Wco
  | 0, _ -> Bj
  | _, _ -> Hybrid

(* Signature that treats a join's children as unordered, so build/probe
   mirror images count as one plan shape. Within a fixed query, a target's
   descriptors are determined by the child's vertex set, so E(child; target)
   is a complete description. *)
let rec shape_signature = function
  | Plan.Scan _ as s -> Plan.signature s
  | Plan.Extend { child; target; _ } ->
      Printf.sprintf "E(%s;%d)" (shape_signature child) target
  | Plan.Hash_join { build; probe; _ } ->
      let a = shape_signature build and b = shape_signature probe in
      let x, y = if a <= b then (a, b) else (b, a) in
      Printf.sprintf "J(%s;%s)" x y

let plans ?(per_subset_cap = 8) ?(family_cap = 64) ?(wco_cap = 128) q =
  let m = Query.num_vertices q in
  let full = Bitset.full m in
  let capped = ref false in
  (* Exact WCO family from orderings, deduplicated by signature. *)
  let wco_plans =
    let seen = Hashtbl.create 32 in
    Query.connected_orders q
    |> List.filter_map (fun order ->
           let p = Plan.wco q order in
           let s = Plan.signature p in
           if Hashtbl.mem seen s then None
           else begin
             Hashtbl.replace seen s ();
             Some p
           end)
  in
  (* Recursive capped enumeration for plans containing joins. The [extends]
     switch gives a second, joins-only pass so the pure-BJ family is not
     starved out of the per-subset cap by E/I chains. *)
  let memo : (bool * Bitset.t, Plan.t list) Hashtbl.t = Hashtbl.create 64 in
  let rec plans_for ~extends s =
    match Hashtbl.find_opt memo (extends, s) with
    | Some l -> l
    | None ->
        let out = ref [] in
        let seen = Hashtbl.create 16 in
        let add p =
          if List.length !out >= per_subset_cap then capped := true
          else begin
            let sg = shape_signature p in
            if not (Hashtbl.mem seen sg) then begin
              Hashtbl.replace seen sg ();
              out := p :: !out
            end
          end
        in
        if Bitset.cardinal s = 2 then begin
          match Query.edges_within q s with
          | [ e ] -> add (Plan.scan q e)
          | _ -> ()
        end
        else begin
          (* Joins first: E/I chains are plentiful and would otherwise
             starve join-rooted shapes out of the per-subset cap.
             s1 proper nonempty connected, s2 = (s \ s1) + overlap. *)
          Bitset.fold_proper_nonempty_subsets
            (fun s1 () ->
              if Bitset.cardinal s1 >= 2 && Query.is_connected_subset q s1 then begin
                let rest = Bitset.diff s s1 in
                if rest <> Bitset.empty then begin
                  let o = ref s1 in
                  let continue = ref true in
                  while !continue do
                    let s2 = Bitset.union rest !o in
                    if s2 <> s && Bitset.cardinal s2 >= 2 && Query.is_connected_subset q s2
                    then begin
                      let covered =
                        List.for_all
                          (fun (e : Query.edge) ->
                            (Bitset.mem e.src s1 && Bitset.mem e.dst s1)
                            || (Bitset.mem e.src s2 && Bitset.mem e.dst s2))
                          (Query.edges_within q s)
                      in
                      if covered then
                        List.iter
                          (fun p1 ->
                            List.iter
                              (fun p2 -> add (Plan.hash_join q p1 p2))
                              (plans_for ~extends s2))
                          (plans_for ~extends s1)
                    end;
                    o := (!o - 1) land s1;
                    if !o = Bitset.empty then continue := false
                  done
                end
              end)
            s ();
          (* E/I extensions. *)
          if extends then
            Bitset.iter
              (fun v ->
                let child = Bitset.remove v s in
                if
                  Query.is_connected_subset q child
                  && Bitset.inter (Query.neighbours q v) child <> Bitset.empty
                then
                  List.iter (fun cp -> add (Plan.extend q cp v)) (plans_for ~extends child))
              s
        end;
        let l = List.rev !out in
        Hashtbl.replace memo (extends, s) l;
        l
  in
  let rec_plans = plans_for ~extends:true full in
  let bj_plans = plans_for ~extends:false full in
  let take_fam cap fam lst =
    let filtered = List.filter (fun p -> classify p = fam) lst in
    let rec take n = function
      | [] -> []
      | _ when n = 0 ->
          capped := true;
          []
      | x :: rest -> x :: take (n - 1) rest
    in
    take cap filtered
  in
  let bj = take_fam family_cap Bj bj_plans in
  let hybrid = take_fam family_cap Hybrid rec_plans in
  let wco = take_fam wco_cap Wco wco_plans in
  ( List.map (fun p -> (Wco, p)) wco
    @ List.map (fun p -> (Bj, p)) bj
    @ List.map (fun p -> (Hybrid, p)) hybrid,
    !capped )

let run ?per_subset_cap ?family_cap ?wco_cap ?(cache = true) g q =
  let all, capped = plans ?per_subset_cap ?family_cap ?wco_cap q in
  let entries =
    List.map
      (fun (family, plan) ->
        let seconds, counters = Gf_util.Timing.time (fun () -> fst (Exec.run_gov ~cache g plan)) in
        { plan; family; seconds; counters })
      all
  in
  { entries; capped }

let summary spectrum ~picked_signature =
  let buf = Buffer.create 256 in
  let fams = [ Wco; Bj; Hybrid ] in
  List.iter
    (fun fam ->
      let es = List.filter (fun e -> e.family = fam) spectrum.entries in
      if es <> [] then begin
        let times = List.map (fun e -> e.seconds) es |> List.sort compare in
        let n = List.length times in
        let min_t = List.hd times
        and max_t = List.nth times (n - 1)
        and med = List.nth times (n / 2) in
        let picked =
          List.exists (fun e -> Plan.signature e.plan = picked_signature) es
        in
        Buffer.add_string buf
          (Printf.sprintf "%s(%d): min=%.4fs med=%.4fs max=%.4fs%s\n"
             (family_to_string fam) n min_t med max_t
             (if picked then "  <- optimizer pick in this family" else ""))
      end)
    fams;
  if spectrum.capped then Buffer.add_string buf "(enumeration capped)\n";
  Buffer.contents buf
