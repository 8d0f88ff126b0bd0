(* gfqbench — the end-to-end serving benchmark. See README.md. *)

open Gfqbench_lib

let usage =
  "usage: gfqbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--gfq PATH]\n\
  \                [--out DIR] [--record FILE]\n\
  \       gfqbench compare A.json B.json"

let die msg =
  prerr_endline ("gfqbench: " ^ msg);
  exit 2

let result_line (r : Workload.result) =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ("metrics", Compare.metrics_obj r.metrics);
       ])

let print_result (r : Workload.result) =
  let row (m : Workload.metric) =
    Printf.printf "  %-28s %14.6g %-6s %s\n" m.name m.value m.unit m.note
  in
  List.iter row r.metrics;
  List.iter row r.extra;
  Printf.printf "  correct=%b attempted=%d failed=%d kernel=%s\n" r.correct r.attempted r.failed
    r.kernel

(* Per-run files (graphs, stores, sockets, logs) and, by default, traces. *)
let work_dir = ".gfqbench"

let compare_main = function
  | [ a; b ] -> (
      match Compare.run ~benchmark:"BENCHMARK.json" a b with
      | true -> exit 0
      | false -> exit 1
      | exception Failure m -> die m)
  | _ -> die usage

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | "compare" :: rest -> compare_main rest
  | [ "calibrate" ] -> Calib.serve ()
  | _ -> ());
  let workload = ref None
  and seed = ref 1
  and seconds = ref 40.
  and trace = ref false
  and gfq = ref "_build/default/bin/gfq.exe"
  and out = ref work_dir
  and record = ref None in
  let int_arg k v = match int_of_string_opt v with Some n -> n | None -> die (k ^ " needs an integer") in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
    | "--seconds" :: v :: rest ->
        seconds :=
          (match float_of_string_opt v with
          | Some s when s > 0. -> s
          | _ -> die "--seconds needs a positive number");
        parse rest
    | "--trace" :: v :: rest -> trace := int_arg "--trace" v <> 0; parse rest
    | "--gfq" :: v :: rest -> gfq := v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | "--record" :: v :: rest -> record := Some v; parse rest
    | a :: _ -> die (Printf.sprintf "unknown argument %S\n%s" a usage)
  in
  parse args;
  let specs =
    match !workload with
    | None -> Workload.specs
    | Some w -> (
        match Workload.find w with Some s -> [ s ] | None -> die ("unknown workload " ^ w))
  in
  if not (Sys.file_exists !gfq) then die (!gfq ^ " not found (build bin/gfq.exe first)");
  let gfq = !gfq in
  at_exit Serve.reap_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let ok = ref true in
  List.iter
    (fun (spec : Workload.spec) ->
      let run_dir = Filename.concat work_dir (Printf.sprintf "%s-%d" spec.name (Unix.getpid ())) in
      Serve.rm_rf run_dir;
      Serve.mkdir_p run_dir;
      if !trace then
        Printf.printf "== %s traced (seed %d, %d requests) ==\n%!" spec.name !seed
          spec.traced_reads
      else Printf.printf "== %s (seed %d, %g s) ==\n%!" spec.name !seed !seconds;
      let run () =
        if !trace then
          Layers.run ~gfq ~dir:run_dir ~out:!out ~seed:!seed spec
        else Workload.run ~gfq ~dir:run_dir ~seed:!seed ~seconds:!seconds spec
      in
      match run () with
      | r ->
          print_result r;
          Option.iter (fun path -> Compare.record path r) !record;
          print_endline (result_line r);
          if not r.correct || r.failed > 0 then ok := false;
          Serve.rm_rf run_dir
      | exception e ->
          Serve.reap_all ();
          Printf.printf "%s failed: %s (logs in %s)\n%!" spec.name (Printexc.to_string e) run_dir;
          ok := false)
    specs;
  exit (if !ok then 0 else 1)
