(* Host-speed calibration. The benchmark's host changes speed under it: for
   stretches of a second to minutes, allocation- and memory-heavy work on a
   CPU runs up to twice as slow, and each CPU changes state on its own. A
   calibrator process, pinned to the servers' CPUs, runs a fixed reference
   computation whenever the client asks, between requests, while the server
   is idle. Latencies are then scaled to the speed at which one reference
   op takes [nominal_ms]. The reference is this file's code, so it is the
   same on every commit the benchmark compares. *)

(* One reference op: allocation-heavy OCaml like the server's planning and
   execution (a 20,000-cell list of boxed pairs, strings, a hash table that
   keeps some of it alive into the major heap). Of the kernels tried (this,
   random sorted-list intersections, an integer loop), this one tracked the
   server's work best. *)
let reference_op () =
  let h = Hashtbl.create 16 in
  let l = ref [] in
  for i = 1 to 20_000 do
    l := (i, string_of_int i) :: !l;
    if i land 7 = 0 then Hashtbl.replace h (i land 1023) !l
  done;
  List.length !l + Hashtbl.length h

(* The speed the scaled metrics are expressed at: one reference op takes
   this long, about what it takes on the 2-CPU host described in README.md
   in its fast state. *)
let nominal_ms = 2.0

(* CPU milliseconds of one reference op. CPU time, so that a preempted op
   does not read slow. A full major collection first (not timed) gives
   every op the same heap to start from: without it, how much major-GC work
   fell inside an op varied, and successive samples differed by 6-16%
   instead of about 1.5%. *)
let timed_op () =
  Gc.full_major ();
  let c0 = Sys.time () in
  ignore (Sys.opaque_identity (reference_op ()));
  (Sys.time () -. c0) *. 1e3

(* The calibrator's main loop: each line on stdin asks for one sample and
   gets [timed_op] back. Exits on end of input. *)
let serve () =
  for _ = 1 to 10 do
    ignore (timed_op ())
  done;
  (try
     while true do
       ignore (input_line stdin);
       Printf.printf "%.6f\n%!" (timed_op ())
     done
   with End_of_file -> ());
  exit 0

type t = { proc : Serve.proc; ic : in_channel; oc : out_channel }

(* Starts [exe calibrate] (this program), behind [taskset -c cpus] when
   [cpus] is given. *)
let start ?cpus exe =
  let to_child, from_parent = Unix.pipe ~cloexec:true () in
  let to_parent, from_child = Unix.pipe ~cloexec:true () in
  let pin = match cpus with Some c -> [ "taskset"; "-c"; Serve.cpu_list c ] | None -> [] in
  let cmd = Array.of_list (pin @ [ exe; "calibrate" ]) in
  let proc = Serve.exec_piped ~name:"calibrator" cmd ~stdin:to_child ~stdout:from_child in
  Unix.close to_child;
  Unix.close from_child;
  { proc; ic = Unix.in_channel_of_descr to_parent; oc = Unix.out_channel_of_descr from_parent }

(* Milliseconds per reference op, measured now. *)
let sample t =
  output_char t.oc '\n';
  flush t.oc;
  match float_of_string_opt (input_line t.ic) with
  | Some ms when ms > 0. -> ms
  | _ -> failwith "calibrator: bad sample"

let stop t =
  close_out_noerr t.oc;
  close_in_noerr t.ic;
  Serve.kill9 t.proc

(* A duration measured between calibration samples [a] and [b], scaled to
   nominal speed. *)
let scale ~a ~b d = d *. nominal_ms /. ((a +. b) /. 2.)

(* Steal time of all CPUs so far, in the 10 ms ticks of /proc/stat: time
   the hypervisor ran something else while this machine's CPUs had work.
   CPU time leaves it out, so calibration cannot see it, while a request
   that it hits takes longer by it. 0 where /proc/stat has no such field. *)
let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> 0
  | None -> 0
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields when List.length fields >= 8 ->
          Option.value (int_of_string_opt (List.nth fields 7)) ~default:0
      | _ -> 0)
