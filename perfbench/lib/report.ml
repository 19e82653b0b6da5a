(* The result of one run: human-readable lines for every figure, then
   the machine-read JSON object as the last line of stdout. *)

(* The metrics BENCHMARK.json declares, as (name, unit) pairs. *)
type spec = { end_to_end : (string * string) list; per_layer : (string * string) list }

let load_spec file =
  let module J = Rm_telemetry.Json in
  let j = J.of_string (In_channel.with_open_bin file In_channel.input_all) in
  let metrics key =
    List.map (fun m -> (J.to_str (J.member "name" m), J.to_str (J.member "unit" m))) (J.to_list (J.member key j))
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
  notes : string list;  (** why a correctness check failed *)
}

(* Seventeen significant digits keep every measured digit; JSON has no
   NaN or infinity, so those print as null (and fail the run). *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* A per-layer metric the workload does not exercise reads 0; a missing
   end-to-end one fails the run. *)
let json ~spec ~trace r =
  let entries =
    if trace then
      List.map
        (fun (name, unit_) -> (name, unit_, Option.value (List.assoc_opt name r.layers) ~default:0.0))
        spec.per_layer
    else
      List.map
        (fun (name, unit_) -> (name, unit_, Option.value (List.assoc_opt name r.e2e) ~default:nan))
        spec.end_to_end
  in
  let metrics =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit_)
      entries
  in
  let all_finite = List.for_all (fun (_, _, v) -> Float.is_finite v) entries in
  ( r.correct && all_finite,
    Printf.sprintf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      (r.correct && all_finite) r.attempted r.failed (String.concat ", " metrics) )

let print ~spec ~workload ~trace r =
  List.iter (fun n -> Printf.printf "CHECK FAILED: %s\n" n) r.notes;
  let unit_of name =
    Option.value (List.assoc_opt name (spec.end_to_end @ spec.per_layer)) ~default:""
  in
  List.iter
    (fun (name, v) -> Printf.printf "%-10s %-28s %16.6g %s\n" workload name v (unit_of name))
    (r.e2e @ r.layers);
  Printf.printf "%-10s attempted %d, failed %d\n" workload r.attempted r.failed;
  let ok, line = json ~spec ~trace r in
  print_endline line;
  ok
