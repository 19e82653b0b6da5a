(* Self-tests of the benchmark's own arithmetic: percentile choice,
   span self time, open-loop due-time accounting, metric names. *)

open Pb

let close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* --- percentiles --------------------------------------------------------- *)

let test_tail_choice () =
  Alcotest.(check int) "p99 of 1000 leaves ten beyond" 10 (Pct.beyond ~q:0.99 1000);
  Alcotest.(check bool) "p99 needs 1000 samples" false (Pct.tail_ok ~q:0.99 999);
  Alcotest.(check bool) "p99 of 1000" true (Pct.tail_ok ~q:0.99 1000);
  Alcotest.(check bool) "p95 of 200" true (Pct.tail_ok ~q:0.95 200);
  Alcotest.(check bool) "p90 of 99" false (Pct.tail_ok ~q:0.9 99);
  Alcotest.(check bool) "p90 of 100" true (Pct.tail_ok ~q:0.9 100);
  let a = Pct.sorted (List.init 1000 (fun i -> float_of_int (i + 1))) in
  close "nearest-rank p99" 990.0 (Pct.at ~q:0.99 a);
  close "nearest-rank p50" 500.0 (Pct.at ~q:0.5 a);
  close "median of an even list" 2.0 (Pct.median [ 4.0; 1.0; 2.0; 3.0 ])

(* --- spans --------------------------------------------------------------- *)

let span id ?(parent = 0) name a b =
  { Span.id; name; parent; req = 0; start_ns = Int64.of_int a; stop_ns = Int64.of_int b }

(* root [0,100] with overlapping children A [10,40] and B [30,60];
   A has a child [15,20]; a second root [150,160]. *)
let tree =
  [ span 1 "rm_engine.step" 0 100;
    span 2 ~parent:1 "rm_core.a" 10 40;
    span 3 ~parent:1 "rm_core.b" 30 60;
    span 4 ~parent:2 "rm_monitor.c" 15 20;
    span 5 "rm_engine.step" 150 160 ]

let test_self_time () =
  let self = List.map (fun ((s : Span.span), t) -> (s.id, t *. 1e9)) (Span.self_times tree) in
  close "root minus the union of its children" 50.0 (List.assoc 1 self);
  close "child minus its own child" 25.0 (List.assoc 2 self);
  close "leaf" 30.0 (List.assoc 3 self);
  close "grandchild" 5.0 (List.assoc 4 self);
  let layers = List.map (fun (l, t) -> (l, t *. 1e9)) (Span.self_by_layer tree) in
  close "rm_engine" 60.0 (List.assoc "rm_engine" layers);
  close "rm_core" 55.0 (List.assoc "rm_core" layers);
  close "rm_monitor" 5.0 (List.assoc "rm_monitor" layers);
  close "self times add up to the covered time" 120.0
    (List.fold_left (fun acc (_, t) -> acc +. t) 0.0 layers);
  close "uncovered share" 0.45 (Span.uncovered_share tree ~lo:0L ~hi:200L)

let test_recorder () =
  let t = Span.create ~on:true in
  Span.with_span t "rm_engine.outer" (fun () ->
      Span.with_span t "rm_core.inner" (fun () -> ()));
  match Span.spans t with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner recorded first" "rm_core.inner" inner.name;
    Alcotest.(check int) "parent link" outer.id inner.parent;
    Alcotest.(check int) "outer is a root" 0 outer.parent
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l)

let test_disabled_recorder () =
  let t = Span.create ~on:false in
  Alcotest.(check int) "result passes through" 3 (Span.with_span t "x.y" (fun () -> 3));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.spans t))

(* --- open loop ----------------------------------------------------------- *)

(* 100 slots/s for 0.2 s against a fake system that answers 1 ms after
   each send; sending slot 5 stalls the generator for 100 ms. *)
let stalled_run () =
  let clock = ref 0.0 and replies = ref [] in
  let tr =
    {
      Openloop.now = (fun () -> !clock);
      ready = (fun _ -> true);
      send =
        (fun i ->
          if i = 5 then clock := !clock +. 0.1;
          replies := (i, !clock +. 0.001) :: !replies);
      poll =
        (fun ~until ->
          match List.filter (fun (_, t) -> t <= until) !replies with
          | [] ->
            clock := Float.max !clock until;
            []
          | due ->
            let first = List.fold_left (fun m (_, t) -> Float.min m t) infinity due in
            clock := Float.max !clock first;
            let now, later = List.partition (fun (_, t) -> t <= !clock) !replies in
            replies := later;
            now);
    }
  in
  Openloop.run ~rate:100.0 ~duration:0.2 ~drain_s:1.0 tr

let test_stall_charged_from_due_time () =
  let s = stalled_run () in
  Alcotest.(check int) "every slot scheduled" 20 (Array.length s);
  (* Slot 5 was sent on time and answered when the stall ended. *)
  close ~eps:1e-6 "slot 5 latency" 0.101 (s.(5).answered -. s.(5).due);
  (* Slot 6 was due at 60 ms but could only go out at 150 ms: its
     latency counts the whole wait, not just the 1 ms of service. *)
  close ~eps:1e-6 "slot 6 sent late" 0.15 s.(6).sent;
  close ~eps:1e-6 "slot 6 latency from due time" 0.091 (s.(6).answered -. s.(6).due);
  close ~eps:1e-6 "slot 19 unaffected" 0.001 (s.(19).answered -. s.(19).due);
  let lat = Openloop.latencies_ms s ~keep:(fun _ -> true) in
  close ~eps:1e-6 "worst latency" 101.0 (List.fold_left Float.max 0.0 lat);
  let sum = Openloop.summarize s ~duration:0.2 in
  close ~eps:1e-6 "generator lag" 90.0 sum.lag_max_ms;
  Alcotest.(check bool) "a stalled step is not reported" false sum.valid;
  Alcotest.(check int) "all answered" 0 sum.unanswered

let test_on_time_run_is_valid () =
  let clock = ref 0.0 and replies = ref [] in
  let tr =
    {
      Openloop.now = (fun () -> !clock);
      ready = (fun _ -> true);
      send = (fun i -> replies := (i, !clock +. 0.001) :: !replies);
      poll =
        (fun ~until ->
          let now, later = List.partition (fun (_, t) -> t <= until) !replies in
          replies := later;
          clock := Float.max !clock until;
          List.map (fun (i, t) -> (i, t)) now);
    }
  in
  let s = Openloop.run ~rate:1000.0 ~duration:1.0 ~drain_s:1.0 tr in
  let sum = Openloop.summarize s ~duration:1.0 in
  Alcotest.(check bool) "valid" true sum.valid;
  Alcotest.(check bool) "backlog flat" false (Openloop.growing sum ~rate:1000.0)

(* --- names --------------------------------------------------------------- *)

let test_name_charset () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Names.valid_name n))
    [ "setup_s"; "lat_p99_ms.high"; "core.nl.delta_hit_ratio"; "9lives"; "a-b" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Names.valid_name n))
    [ ""; "_x"; ".x"; "has space"; "per/sec"; String.make 65 'a' ];
  List.iter (fun u -> Alcotest.(check bool) u true (Names.valid_unit u)) [ "ms"; "1/s"; "%"; "vs/s" ];
  Alcotest.(check bool) "unit too long" false (Names.valid_unit (String.make 17 'u'))

let test_benchmark_json () =
  let file = "../../BENCHMARK.json" in
  let spec = Report.load_spec file in
  let metrics = spec.end_to_end @ spec.per_layer in
  let workloads =
    let module J = Rm_telemetry.Json in
    let j = J.of_string (In_channel.with_open_bin file In_channel.input_all) in
    List.map (fun w -> J.to_str (J.member "name" w)) (J.to_list (J.member "workloads" j))
  in
  let all = List.map fst metrics @ workloads in
  List.iter (fun n -> if not (Names.valid_name n) then Alcotest.failf "bad name %S" n) all;
  List.iter (fun (n, u) -> if not (Names.valid_unit u) then Alcotest.failf "bad unit %S of %s" u n) metrics;
  Alcotest.(check int) "names are unique" (List.length all) (List.length (List.sort_uniq compare all))

let () =
  Alcotest.run "perfbench"
    [ ("percentiles", [ Alcotest.test_case "tail choice" `Quick test_tail_choice ]);
      ( "spans",
        [ Alcotest.test_case "self time on a hand-built tree" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
          Alcotest.test_case "disabled recorder" `Quick test_disabled_recorder ] );
      ( "openloop",
        [ Alcotest.test_case "stall charged from due time" `Quick test_stall_charged_from_due_time;
          Alcotest.test_case "on-time run is valid" `Quick test_on_time_run_is_valid ] );
      ( "names",
        [ Alcotest.test_case "charset" `Quick test_name_charset;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ] ) ]
