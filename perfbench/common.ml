(* Pieces every workload uses: the run's options, memory readings and
   registry counters. *)

module Metrics = Rm_telemetry.Metrics

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  brokerd : string;  (** path of the brokerd executable *)
  out_dir : string;  (** where traces and sockets go, inside the checkout *)
}

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      go ())

(* Sum of every member of a registry family (all label sets). *)
let counter name =
  List.fold_left
    (fun acc (v : Metrics.view) -> if v.name = name then acc +. v.value else acc)
    0.0 (Metrics.snapshot ())

let counters names = List.map (fun n -> (n, counter n)) names

let delta before after name = List.assoc name after -. List.assoc name before

let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0

(* Process-wide allocator knobs read from the environment would change
   the program under test without changing its inputs. *)
let knobs = [ "RM_ALLOC_DOMAINS"; "RM_ALLOC_STARTS"; "RM_ALLOC_HIER_THRESHOLD" ]

let knobs_set () = List.filter (fun k -> Sys.getenv_opt k <> None) knobs

let us s = 1e6 *. s
let ms s = 1e3 *. s
