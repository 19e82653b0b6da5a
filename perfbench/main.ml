(* Benchmark runner: runs one workload at one seed and prints every
   metric BENCHMARK.json declares by name, then the result as one JSON
   line. Run it from the directory that holds BENCHMARK.json.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
       [--brokerd PATH] [--out-dir DIR]

   Exits 1 when a correctness check fails, 2 on bad usage. *)

module Pct = Pb.Pct
module Span = Pb.Span
module Report = Pb.Report

let workloads = [ "sched-sim"; "serve-mix"; "alloc-large" ]

(* Self time per layer and the share of the traced window no span
   covers, from the recorder's spans. *)
let trace_layers spans ~lo ~hi =
  let all = Span.spans spans in
  List.map (fun (l, s) -> ("self_s." ^ l, s)) (Span.self_by_layer all)
  @ [ ("trace.uncovered_share", Span.uncovered_share all ~lo ~hi) ]

(* End-to-end runs keep telemetry and spans off. A traced run measures
   half its time untraced, then half with the registry and the span
   recorder on; the difference in op_p50_ms is the tracing overhead. *)
let run_traced (o : Common.opts) ~workload measure =
  if not o.trace then fst (measure ~seconds:o.seconds ~spans:(Span.create ~on:false))
  else begin
    let _, untraced = measure ~seconds:(o.seconds /. 2.0) ~spans:(Span.create ~on:false) in
    let spans = Span.create ~on:true in
    let (r : Report.t), traced =
      Rm_telemetry.Runtime.with_enabled (fun () -> measure ~seconds:(o.seconds /. 2.0) ~spans)
    in
    Span.write_jsonl (Filename.concat o.out_dir (workload ^ ".spans.jsonl")) (Span.spans spans);
    { r with
      layers = r.layers @ [ ("trace.overhead_pct", 100.0 *. (traced -. untraced) /. untraced) ] }
  end

let p50_of (r : Report.t) = List.assoc "op_p50_ms" r.e2e

let alloc_large (o : Common.opts) =
  let module A = Alloc_large in
  let measure ~seconds ~spans =
    let o = { o with Common.seconds } in
    let lo = Pb.Clock.now_ns () in
    let res = A.run o ~spans in
    let hi = Pb.Clock.now_ns () in
    let steps = res.A.steps in
    let total (s : A.step) = s.compose_s +. s.derive_s +. s.decide_s in
    let times = List.map total steps in
    let sorted = Pct.sorted (List.map Common.ms times) in
    let n = List.length steps in
    let d name = List.assoc name res.A.counters in
    let per_decision name = d name /. float_of_int n in
    let mean_of f sel = Pct.mean (List.filter_map (fun s -> if sel s then Some (f s) else None) steps) in
    let e2e =
      [ ("setup_s", res.A.setup_s);
        ("peak_rss_mb", Common.peak_rss_mb None);
        ("op_p50_ms", Pct.at ~q:0.5 sorted);
        ("op_tail_ms", Pct.at ~q:0.95 sorted) ]
    in
    let layers =
      [ ("decisions_per_s", float_of_int n /. List.fold_left ( +. ) 0.0 times);
        ("decide_p50_ms", Pct.at ~q:0.5 sorted);
        ("decide_p90_ms", Pct.at ~q:0.9 sorted);
        ("eq4_cost", Pct.mean res.A.costs);
        ("failed_frac", float_of_int res.A.failed /. float_of_int n) ]
      @ (if Span.enabled spans then
           [ ("monitor.compose_us", Common.us (mean_of (fun s -> s.A.compose_s) (fun _ -> true)));
             ("core.derive_ms.delta", Common.ms (mean_of (fun s -> s.A.derive_s) (fun s -> not s.A.full)));
             ("core.derive_ms.full", Common.ms (mean_of (fun s -> s.A.derive_s) (fun s -> s.A.full)));
             ("core.decide_ms", Common.ms (mean_of (fun s -> s.A.decide_s) (fun _ -> true)));
             ("core.nl.delta_hit_ratio", Common.ratio (d "core.nl.delta_applied") (d "core.nl.delta_invalidated"));
             ("core.model_cache.hit_ratio", Common.ratio (d "core.model_cache.hits") (d "core.model_cache.misses"));
             ("core.candidates.generated", per_decision "core.candidates.generated");
             ("core.alloc.pruned_starts", per_decision "core.alloc.pruned_starts") ]
           @ trace_layers spans ~lo ~hi
         else [])
    in
    let r =
      { Report.correct = res.A.failed = 0; attempted = n; failed = res.A.failed; e2e; layers; notes = res.A.notes }
    in
    (r, p50_of r)
  in
  run_traced o ~workload:"alloc-large" measure

let sched_sim (o : Common.opts) =
  let module S = Sched_sim in
  let measure ~seconds ~spans =
    let o = { o with Common.seconds } in
    let counters =
      [ "monitor.daemon.ticks"; "monitor.probe.rounds"; "monitor.store.node_writes";
        "monitor.store.pair_writes"; "sched.jobs_dispatched"; "sched.requeues";
        "mpisim.iterations"; "mpisim.inter_node_bytes" ]
    in
    let c0 = Common.counters counters in
    let lo = Pb.Clock.now_ns () in
    let runs, mismatch = S.run o ~spans in
    let hi = Pb.Clock.now_ns () in
    let d = Common.delta c0 (Common.counters counters) in
    let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
    let all f = List.concat_map f runs in
    let virtual_s = sum (fun r -> r.S.virtual_s) in
    (* A batch's percentile, then the median over the batches of a
       seed, so that a slow spell of the host in one batch does not move
       the figure; then the mean of the two seeds, whose slices cost
       differently, so that it does not move with how many batches of
       each fit in the run. *)
    let slice_ms ~q =
      Pct.mean
        (List.map
           (fun seed ->
             Pct.median
               (List.filter_map
                  (fun r ->
                    if r.S.seed <> seed then None
                    else Some (Pct.at ~q (Pct.sorted (List.map Common.ms r.S.slices_s))))
                  runs))
           (Array.to_list (S.seeds o.seed)))
    in
    let jobs = S.job_count * List.length runs in
    let unfinished = int_of_float (sum (fun r -> float_of_int r.S.unfinished)) in
    let finished = float_of_int (jobs - unfinished) in
    let sim_speed = virtual_s /. sum (fun r -> List.fold_left ( +. ) 0.0 r.S.slices_s) in
    let per_vh name = d name /. (virtual_s /. 3600.0) in
    let per_run x = x /. float_of_int (List.length runs) in
    let e2e =
      [ ("setup_s", Pct.median (List.map (fun r -> r.S.setup_s) runs));
        ("peak_rss_mb", Common.peak_rss_mb None);
        ("op_p50_ms", slice_ms ~q:0.5);
        ("op_tail_ms", slice_ms ~q:0.85) ]
    in
    let layers =
      [ ("sim_speed", sim_speed);
        ("job_exec_s",
          Pct.mean (List.concat_map (fun r -> if r.S.seed = o.seed then r.S.exec_vs else []) runs));
        ("failed_frac", float_of_int unfinished /. float_of_int jobs) ]
      @
      if not (Span.enabled spans) then []
      else begin
        let advance_s, probe_s = S.substrate_probes ~seed:o.seed ~spans in
        let step_self =
          List.filter_map
            (fun ((s : Span.span), self) -> if s.name = "rm_engine.run_until" then Some self else None)
            (Span.self_times (Span.spans spans))
        in
        [ ("engine.step_self_s", Pct.mean step_self);
          ("workload.advance_us", Common.us advance_s);
          ("netsim.probe_us", Common.us probe_s);
          ("gc.minor_words_per_vs", sum (fun r -> r.S.minor_words) /. virtual_s);
          ("gc.major_collections", per_run (sum (fun r -> float_of_int r.S.major_collections)));
          ("monitor.daemon.ticks", per_vh "monitor.daemon.ticks");
          ("monitor.probe.rounds", per_vh "monitor.probe.rounds");
          ("monitor.store.node_writes", per_vh "monitor.store.node_writes");
          ("monitor.store.pair_writes", per_vh "monitor.store.pair_writes");
          ("monitor.snapshot_us", Common.us (Pct.mean (all (fun r -> r.S.snapshot_s))));
          ("sched.submit_us", Common.us (Pct.mean (all (fun r -> r.S.submit_s))));
          ("sched.jobs_dispatched", per_run (d "sched.jobs_dispatched"));
          ("sched.requeues", per_run (d "sched.requeues"));
          ("mpisim.iterations", d "mpisim.iterations" /. finished);
          ("mpisim.inter_node_bytes", d "mpisim.inter_node_bytes" /. finished) ]
        @ trace_layers spans ~lo ~hi
      end
    in
    let short =
      List.filter_map
        (fun r ->
          let n = List.length r.S.slices_s in
          if Pct.tail_ok ~q:0.85 n then None
          else Some (Printf.sprintf "a batch of seed %d has %d slices, too few for its p85" r.S.seed n))
        runs
    in
    let notes =
      (if unfinished > 0 then [ Printf.sprintf "%d of %d jobs did not finish" unfinished jobs ] else [])
      @ (if mismatch then [ "a repeated seed produced a different outcome digest" ] else [])
      @ short
    in
    let r =
      { Report.correct = notes = []; attempted = jobs; failed = unfinished; e2e; layers; notes }
    in
    (r, p50_of r)
  in
  run_traced o ~workload:"sched-sim" measure

let serve_mix (o : Common.opts) =
  let module M = Serve_mix in
  let measure ~seconds ~spans =
    let o = { o with Common.seconds } in
    let ops = fst (M.plan (Rm_stats.Rng.create o.seed) ~first_grant:1 ~n:200_000) in
    (* Built at the first chunk, after the daemon spawns, so that the
       spawns do not fork a process holding the replay's world. *)
    let replay = lazy (Replay.create ~seed:o.seed ~out_dir:o.out_dir ~rate:M.high_rps ops) in
    let lo = Pb.Clock.now_ns () in
    let r, (chunks, stages, refused) =
      Fun.protect
        ~finally:(fun () -> if Lazy.is_val replay then Replay.stop (Lazy.force replay))
        (fun () ->
          let interlude () =
            Replay.chunk (Lazy.force replay) ~seconds:(0.3 *. seconds /. float_of_int M.interludes)
              ~min_requests:(5000 / M.interludes)
          in
          let r =
            M.run o ~spans ~saturation_slots:(int_of_float (400.0 *. seconds)) ~search:(Span.enabled spans)
              ~interlude
          in
          (r, Replay.result (Lazy.force replay)))
    in
    let hi = Pb.Clock.now_ns () in
    let replay_s = List.concat_map (List.map snd) chunks in
    (* Allocates only: releases and reshapes cost a fraction of an
       allocate, and a median over the mixture would sit on the edge
       between them. Each chunk's percentile, then the median over the
       chunks, so that a slow spell of the host in one chunk does not
       move the figure. *)
    let service_ms ~q =
      Pct.median
        (List.map
           (fun c ->
             Pct.at ~q (Pct.sorted (List.filter_map (fun (op, t) -> if M.is_alloc op then Some (Common.ms t) else None) c)))
           chunks)
    in
    let lat (st : M.step) keep = Pct.sorted (M.latencies st ~keep) in
    let low_a = lat r.low M.is_alloc in
    let writes op = not (M.is_alloc op) in
    (* Median over the high-rate windows of a per-window percentile. *)
    let high ~q keep = Pct.median (List.map (fun st -> Pct.at ~q (lat st keep)) r.high) in
    List.iter
      (fun (st : M.step) ->
        Printf.eprintf "serve-mix step %.1f req/s: %d slots, alloc p50 %.3f p99 %.3f ms, lag p99 %.3f ms, backlog growth %.2f, valid %b\n"
          st.rate st.summary.slots (Pct.at ~q:0.5 (lat st M.is_alloc)) (M.p99_alloc st)
          st.summary.lag_p99_ms st.summary.backlog_growth st.summary.valid)
      (r.low :: r.high @ r.search);
    let e2e =
      [ ("setup_s", Pct.median r.setup_s);
        ("peak_rss_mb", r.peak_rss_mb);
        ("op_p50_ms", service_ms ~q:0.5);
        ("op_tail_ms", service_ms ~q:0.95) ]
    in
    (* What the replay's service time leaves out of the round trips
       the client measured at the high rate. *)
    let rtt_ms =
      Pct.mean
        (List.concat_map
           (fun (st : M.step) ->
             Array.to_list st.samples
             |> List.filter_map (fun (x : Pb.Openloop.sample) ->
                    if Float.is_nan x.answered then None else Some (Common.ms (x.answered -. x.sent))))
           r.high)
    in
    let reported = ("low", r.low) :: List.map (fun st -> ("high", st)) r.high in
    (* A live step the generator still fell behind in after every
       attempt says nothing about the daemon; it is counted, not failed,
       and the gated replay does not depend on it. *)
    let invalid = List.filter (fun (_, (st : M.step)) -> not st.summary.valid) reported in
    List.iter
      (fun (name, (st : M.step)) ->
        Printf.printf "serve-mix: a %s-rate step stayed invalid (generator lag p99 %.2f ms)\n" name
          st.summary.lag_p99_ms)
      invalid;
    let c name = List.assoc name r.counters in
    let layers =
      [ ("lat_p50_ms.low", Pct.at ~q:0.5 low_a);
        ("lat_p99_ms.low", Pct.at ~q:0.99 low_a);
        ("lat_p50_ms.high", high ~q:0.5 M.is_alloc);
        ("lat_p99_ms.high", high ~q:0.99 M.is_alloc);
        ("write_p99_ms.high", high ~q:0.99 writes);
        ("failed_frac", float_of_int r.failed /. float_of_int r.attempted);
        ("gen.lag_ms", Pct.median (List.map (fun (st : M.step) -> st.summary.lag_p99_ms) r.high));
        ("gen.invalid_steps", float_of_int (List.length invalid)) ]
      @
      if not (Span.enabled spans) then []
      else begin
        let rtt name =
          Common.ms
            (Pct.mean
               (List.filter_map
                  (fun (s : Span.span) ->
                    if s.name = name then Some (Pb.Clock.s_of_ns (Int64.sub s.stop_ns s.start_ns)) else None)
                  (Span.spans spans)))
        in
        [ ("max_rate_rps", r.max_rate_rps);
          ("saturation_rps", Pct.median r.saturation_rps);
          ("service.rtt_ms.allocate", rtt "rm_service.allocate");
          ("service.rtt_ms.release", rtt "rm_service.release");
          ("service.rtt_ms.reshape", rtt "rm_service.reshape");
          ("service.batch_size_mean", c "core.service.requests" /. c "core.service.batches");
          ("service.refreshes_per_s", c "core.service.snapshots" /. r.high_wall_s);
          ("service.retry_after", c "core.service.retry_after");
          ("service.rejected", c "core.service.rejected") ]
        @ stages
        @ [ ("replay.uncovered_share", 1.0 -. (Pct.mean (List.map Common.ms replay_s) /. rtt_ms)) ]
        @ trace_layers spans ~lo ~hi
      end
    in
    let short =
      List.concat_map
        (fun (name, st) ->
          List.filter_map
            (fun (what, keep) ->
              let n = Array.length (lat st keep) in
              if Pct.tail_ok ~q:0.99 n then None
              else Some (Printf.sprintf "%s-rate %s p99 has %d samples, too few" name what n))
            [ ("allocate", M.is_alloc); ("write", writes) ])
        reported
      @ List.filter_map
          (fun c ->
            let n = List.length (List.filter (fun (op, _) -> M.is_alloc op) c) in
            if Pct.tail_ok ~q:0.95 n then None
            else Some (Printf.sprintf "a replay chunk's allocate p95 has %d samples, too few" n))
          chunks
    in
    let replay_refused =
      if refused = 0 then [] else [ Printf.sprintf "the replayed tick path refused %d requests" refused ]
    in
    let notes = r.notes @ short @ replay_refused in
    let rep =
      { Report.correct = notes = [];
        attempted = r.attempted + List.length replay_s;
        failed = r.failed + refused;
        e2e; layers; notes }
    in
    (rep, p50_of rep)
  in
  run_traced o ~workload:"serve-mix" measure

let usage () =
  prerr_endline
    "usage: main.exe --workload sched-sim|serve-mix|alloc-large --seed N \
     --seconds S --trace 0|1 [--brokerd PATH] [--out-dir DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let brokerd = ref "_build/default/bin/brokerd.exe" and out_dir = ref "." in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--brokerd", Arg.Set_string brokerd, "PATH");
      ("--out-dir", Arg.Set_string out_dir, "DIR") ]
    (fun _ -> usage ())
    "perfbench";
  let seed = match !seed with Some s -> s | None -> usage () in
  if not (List.mem !workload workloads) || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1)
  then usage ();
  (match Common.knobs_set () with
  | [] -> ()
  | set ->
    Printf.eprintf "perfbench: refusing to run with %s set; unset it so the allocator runs its defaults\n"
      (String.concat ", " set);
    exit 2);
  (* Metric names and units come from BENCHMARK.json in the checkout root. *)
  let spec = Report.load_spec "BENCHMARK.json" in
  let o =
    { Common.seed; seconds = !seconds; trace = !trace = 1; brokerd = !brokerd; out_dir = !out_dir }
  in
  (* A run stopped from outside unwinds, so serve-mix still stops and
     reaps the daemon it spawned. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Exit)))
    [ Sys.sigterm; Sys.sigint ];
  let r =
    match !workload with
    | "alloc-large" -> alloc_large o
    | "sched-sim" -> sched_sim o
    | "serve-mix" -> serve_mix o
    | _ -> usage ()
  in
  if not (Report.print ~spec ~workload:!workload ~trace:o.trace r) then exit 1
