(* Recorded runs and [gfqbench compare]: two sets of runs judged metric by
   metric against the bounds BENCHMARK.json fixes. *)

let metrics_obj (ms : Workload.metric list) =
  Json.Obj
    (List.map
       (fun (m : Workload.metric) ->
         (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]))
       ms)

let command_line cmd =
  match Unix.open_process_args_in cmd.(0) cmd with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      (match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None)

(* The machine and program a run measured: the commit of the checkout (when
   it is a git work tree) and the machine's processors ([--all]: a run pins
   this process to one of them). *)
let provenance () =
  let nproc =
    match Option.bind (command_line [| "nproc"; "--all" |]) int_of_string_opt with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  let commit =
    Option.value (command_line [| "git"; "rev-parse"; "--short=12"; "HEAD" |]) ~default:"unknown"
  in
  [ ("commit", Json.Str commit); ("nproc", Json.Num (float_of_int nproc)) ]

let run_record (r : Workload.result) =
  Json.Obj
    ([
       ("workload", Json.Str r.workload);
       ("seed", Json.Num (float_of_int r.seed));
       ("trace", Json.Bool r.traced);
       ("correct", Json.Bool r.correct);
       ("attempted", Json.Num (float_of_int r.attempted));
       ("failed", Json.Num (float_of_int r.failed));
       ("kernel", Json.Str r.kernel);
     ]
    @ provenance ()
    @ [ ("metrics", metrics_obj r.metrics); ("extra", metrics_obj r.extra) ])

(* Append one run to a runs file ([{"runs":[...]}]), creating it if needed. *)
let record path r =
  let runs =
    if Sys.file_exists path then
      match Json.of_file path with
      | Ok j -> Json.to_list (Option.value (Json.member "runs" j) ~default:(Json.Arr []))
      | Error m -> failwith m
    else []
  in
  let text = Json.to_string (Json.Obj [ ("runs", Json.Arr (runs @ [ run_record r ])) ]) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc text;
      output_char oc '\n')

type bound = { name : string; better : [ `Lower | `Higher ]; bound : float }

let bounds_of benchmark =
  Json.to_list (Option.value (Json.member "end_to_end" benchmark) ~default:(Json.Arr []))
  |> List.filter_map (fun m ->
         match
           ( Option.bind (Json.member "name" m) Json.to_str,
             Option.bind (Json.member "better" m) Json.to_str,
             Option.bind (Json.member "bound" m) Json.to_num )
         with
         | Some name, Some "lower", Some bound -> Some { name; better = `Lower; bound }
         | Some name, Some "higher", Some bound -> Some { name; better = `Higher; bound }
         | _ -> None)

(* [(workload, metric) -> values] of the untraced runs in a runs file. *)
let values runs_file =
  match Json.of_file runs_file with
  | Error m -> failwith m
  | Ok j ->
      let tbl = Hashtbl.create 32 in
      List.iter
        (fun run ->
          match (Json.member "workload" run, Json.member "trace" run, Json.member "metrics" run) with
          | Some (Json.Str w), Some (Json.Bool false), Some (Json.Obj ms) ->
              List.iter
                (fun (k, v) ->
                  match Option.bind (Json.member "value" v) Json.to_num with
                  | Some x ->
                      let key = (w, k) in
                      Hashtbl.replace tbl key
                        (x :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
                  | None -> ())
                ms
          | _ -> ())
        (Json.to_list (Option.value (Json.member "runs" j) ~default:(Json.Arr [])));
      tbl

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [b] against [a]: worse or better when the medians differ by more than
   the bound; unresolved when either side's quartile spread is wider than
   the bound, unless every run of [b] beats every run of [a]. *)
let judge bound a b =
  let _, ma, _ = Stats.quartiles a and _, mb, _ = Stats.quartiles b in
  let spread xs =
    let q1, m, q3 = Stats.quartiles xs in
    (q3 -. q1) /. m
  in
  let change =
    match bound.better with `Lower -> (mb -. ma) /. ma | `Higher -> (ma -. mb) /. ma
  in
  let all_better =
    match bound.better with
    | `Lower -> Array.fold_left Float.max neg_infinity b < Array.fold_left Float.min infinity a
    | `Higher -> Array.fold_left Float.min infinity b > Array.fold_left Float.max neg_infinity a
  in
  if Float.max (spread a) (spread b) > bound.bound then (if all_better then Better else Unresolved)
  else if change > bound.bound then Worse
  else if change < -.bound.bound then Better
  else Unchanged

let run ~benchmark a_file b_file =
  let bench = match Json.of_file benchmark with Ok j -> j | Error m -> failwith m in
  let bounds = bounds_of bench in
  let a = values a_file and b = values b_file in
  let workloads =
    Hashtbl.fold (fun (w, _) _ acc -> if List.mem w acc then acc else w :: acc) a []
    |> List.sort compare
  in
  let worse = ref 0 in
  Printf.printf "%-14s %-16s %-30s %-30s %8s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun bd ->
          match (Hashtbl.find_opt a (w, bd.name), Hashtbl.find_opt b (w, bd.name)) with
          | Some xa, Some xb ->
              let xa = Array.of_list xa and xb = Array.of_list xb in
              let v = judge bd xa xb in
              if v = Worse then incr worse;
              let show xs =
                let q1, m, q3 = Stats.quartiles xs in
                Printf.sprintf "%.4g [%.4g, %.4g] n=%d" m q1 q3 (Array.length xs)
              in
              let _, ma, _ = Stats.quartiles xa and _, mb, _ = Stats.quartiles xb in
              Printf.printf "%-14s %-16s %-30s %-30s %+7.1f%%  %s (bound %g%%)\n" w bd.name (show xa)
                (show xb)
                ((mb -. ma) /. ma *. 100.)
                (verdict_to_string v) (bd.bound *. 100.)
          | _ -> Printf.printf "%-14s %-16s missing from one side\n" w bd.name)
        bounds)
    workloads;
  !worse = 0
