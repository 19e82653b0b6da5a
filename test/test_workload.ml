(* Tests for rm_workload: OU processes, spike trains, node models, flow
   generation, world. *)

module Rng = Rm_stats.Rng
module Ou = Rm_workload.Ou_process
module Spike = Rm_workload.Spike_train
module Node_model = Rm_workload.Node_model
module Flow_gen = Rm_workload.Flow_gen
module Scenario = Rm_workload.Scenario
module World = Rm_workload.World
module Cluster = Rm_cluster.Cluster
module Flow = Rm_netsim.Flow

let small_cluster () = Cluster.homogeneous ~cores:8 ~nodes_per_switch:[ 3; 3 ] ()

(* --- Ou_process ------------------------------------------------------------ *)

let test_ou_clamps () =
  let g = Rng.create 1 in
  let p = Ou.create ~rng:g ~mu:0.5 ~tau:100.0 ~sigma:5.0 ~lo:0.0 ~hi:1.0 () in
  for _ = 1 to 1000 do
    let v = Ou.step p ~dt:10.0 () in
    Alcotest.(check bool) "clamped" true (v >= 0.0 && v <= 1.0)
  done

let test_ou_reverts_to_mean () =
  let g = Rng.create 2 in
  let p = Ou.create ~rng:g ~mu:10.0 ~tau:50.0 ~sigma:0.001 ~init:0.0 () in
  (* After many time constants with tiny noise, value is near mu. *)
  ignore (Ou.step p ~dt:5000.0 ());
  Alcotest.(check bool) "near mu" true (Float.abs (Ou.value p -. 10.0) < 0.1)

let test_ou_zero_dt_no_change () =
  let g = Rng.create 3 in
  let p = Ou.create ~rng:g ~mu:1.0 ~tau:10.0 ~sigma:1.0 ~init:0.3 () in
  let before = Ou.value p in
  ignore (Ou.step p ~dt:0.0 ());
  Alcotest.(check (float 1e-12)) "unchanged" before (Ou.value p)

let test_ou_mean_override () =
  let g = Rng.create 4 in
  let p = Ou.create ~rng:g ~mu:0.0 ~tau:10.0 ~sigma:0.0001 ~init:0.0 () in
  ignore (Ou.step p ~dt:1000.0 ~mu:5.0 ());
  Alcotest.(check bool) "tracked override" true (Float.abs (Ou.value p -. 5.0) < 0.1)

let test_ou_stationary_sd () =
  let g = Rng.create 5 in
  let p = Ou.create ~rng:g ~mu:0.0 ~tau:10.0 ~sigma:2.0 ~init:0.0 () in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Ou.step p ~dt:30.0 ()) in
  (* dt >> tau: samples are nearly independent N(0, sigma). *)
  let sd = Rm_stats.Descriptive.stddev xs in
  Alcotest.(check bool) "stationary sd ~2" true (Float.abs (sd -. 2.0) < 0.15)

(* --- Spike_train ----------------------------------------------------------- *)

let test_spike_zero_rate () =
  let g = Rng.create 6 in
  let s = Spike.create ~rng:g ~rate_per_s:0.0 ~magnitude:(fun _ -> 1.0)
      ~mean_duration_s:10.0 () in
  Alcotest.(check (float 1e-9)) "always zero" 0.0 (Spike.advance s ~now:1e6);
  Alcotest.(check int) "no sessions" 0 (Spike.active s)

let test_spike_arrivals_and_expiry () =
  let g = Rng.create 7 in
  let s = Spike.create ~rng:g ~rate_per_s:0.1 ~magnitude:(fun _ -> 2.0)
      ~mean_duration_s:100.0 () in
  let v = Spike.advance s ~now:1000.0 in
  Alcotest.(check bool) "some spikes arrived" true (v > 0.0);
  (* Far in the future every session has expired (rate still active, but
     check value is sum of live magnitudes only). *)
  let v2 = Spike.advance s ~now:1001.0 in
  Alcotest.(check bool) "value is multiple of magnitude" true
    (Float.rem v2 2.0 < 1e-9)

let test_spike_monotonic_time () =
  let g = Rng.create 8 in
  let s = Spike.create ~rng:g ~rate_per_s:0.1 ~magnitude:(fun _ -> 1.0)
      ~mean_duration_s:10.0 () in
  ignore (Spike.advance s ~now:100.0);
  Alcotest.check_raises "backwards"
    (Invalid_argument "Spike_train.advance: time went backwards") (fun () ->
      ignore (Spike.advance s ~now:50.0))

let test_spike_long_horizon_mean () =
  (* M/G/inf: mean active sessions = rate * mean duration. *)
  let g = Rng.create 9 in
  let s = Spike.create ~rng:g ~rate_per_s:0.01 ~magnitude:(fun _ -> 1.0)
      ~mean_duration_s:200.0 () in
  let samples = ref [] in
  for i = 1 to 3000 do
    ignore (Spike.advance s ~now:(float_of_int i *. 60.0));
    samples := float_of_int (Spike.active s) :: !samples
  done;
  let mean = Rm_stats.Descriptive.mean_list !samples in
  Alcotest.(check bool) "mean active ~2" true (Float.abs (mean -. 2.0) < 0.4)

(* --- Node_model ------------------------------------------------------------- *)

let profile : Node_model.profile =
  {
    load_mu = 0.5;
    load_tau = 600.0;
    load_sigma = 0.2;
    spike_rate_per_s = 1e-4;
    spike_magnitude_lo = 0.5;
    spike_magnitude_hi = 3.0;
    spike_mean_duration_s = 600.0;
    diurnal_amplitude = 0.5;
    diurnal_phase_s = 0.0;
    util_base_pct = 20.0;
    util_sigma_pct = 4.0;
    mem_used_frac_mu = 0.25;
    users_mu = 1.5;
  }

let node () =
  Rm_cluster.Node.make ~id:0 ~hostname:"n1" ~cores:12 ~freq_ghz:3.0
    ~mem_gb:16.0 ~switch:0

let test_node_model_ranges () =
  let m = Node_model.create ~rng:(Rng.create 10) ~node:(node ()) ~profile in
  for i = 1 to 2000 do
    Node_model.advance m ~now:(float_of_int i *. 30.0);
    Alcotest.(check bool) "load >= 0" true (Node_model.cpu_load m >= 0.0);
    let u = Node_model.cpu_util_pct m in
    Alcotest.(check bool) "util in [0,100]" true (u >= 0.0 && u <= 100.0);
    let mem = Node_model.mem_used_gb m in
    Alcotest.(check bool) "mem within node" true (mem >= 0.0 && mem <= 16.0);
    Alcotest.(check bool) "users >= 0" true (Node_model.users m >= 0)
  done

let test_node_model_util_couples_to_load () =
  (* A model with huge load should show higher utilization than idle. *)
  let loaded = { profile with load_mu = 20.0; util_base_pct = 10.0 } in
  let idle = { profile with load_mu = 0.0; load_sigma = 0.0; util_base_pct = 10.0;
               spike_rate_per_s = 0.0 } in
  let ml = Node_model.create ~rng:(Rng.create 11) ~node:(node ()) ~profile:loaded in
  let mi = Node_model.create ~rng:(Rng.create 11) ~node:(node ()) ~profile:idle in
  Node_model.advance ml ~now:10_000.0;
  Node_model.advance mi ~now:10_000.0;
  Alcotest.(check bool) "loaded util > idle util" true
    (Node_model.cpu_util_pct ml > Node_model.cpu_util_pct mi)

(* --- Lazy node processes: distributional equivalence ----------------------- *)

(* Node models were once stepped on every world tick, about 1/12 s apart
   under the monitor daemons, with each exact OU step clamped into the
   bounds. They are now stepped only when a node is read, once per ~6 s
   daemon sample, and reflected at the bounds ({!Ou.catch_up}). Both are
   sampled every 6 s here, over many independent seeds, and compared. *)

let sample_every = 6.0
let ticks_per_sample = 72

(* The clamped step node models used to take, kept as the reference. *)
let clamped_step rng ~x ~dt ~mu ~tau ~sigma ~lo ~hi =
  let decay = exp (-.dt /. tau) in
  let noise_scale = sigma *. sqrt (1.0 -. (decay *. decay)) in
  let noise = Rng.gaussian rng ~mu:0.0 ~sigma:1.0 in
  let v = mu +. ((x -. mu) *. decay) +. (noise_scale *. noise) in
  Float.min hi (Float.max lo v)

(* Distances between two sets of traces: mean gap in units of the
   reference sd, relative gap of the sd and of the 6 s increment's sd,
   absolute gaps of the lag-1 and lag-10 autocorrelations, and the
   two-sample Kolmogorov–Smirnov statistic of the pooled samples. *)
type distances = {
  d_mean : float;
  d_sd : float;
  d_ac1 : float;
  d_ac10 : float;
  d_ks : float;
  d_inc : float;
}

type ou_case = {
  label : string;
  mu : float;
  tau : float;
  sigma : float;
  lo : float;
  hi : float;
  mu_at : (float -> float) option;
  bounds : distances;
}

(* Three tau-lengths per trace, so every case has about as many
   effectively independent samples. *)
let samples_of c = int_of_float (3.0 *. c.tau /. sample_every)

let clamped_trace c ~seed =
  let rng = Rng.create seed in
  let x = ref (Float.min c.hi (Float.max c.lo (Rng.gaussian rng ~mu:c.mu ~sigma:(c.sigma /. 2.0)))) in
  let dt = sample_every /. float_of_int ticks_per_sample in
  Array.init (samples_of c) (fun i ->
      for k = 1 to ticks_per_sample do
        let now = (float_of_int i *. sample_every) +. (float_of_int k *. dt) in
        let mu = match c.mu_at with None -> c.mu | Some f -> f now in
        x := clamped_step rng ~x:!x ~dt ~mu ~tau:c.tau ~sigma:c.sigma ~lo:c.lo ~hi:c.hi
      done;
      !x)

let lazy_trace c ~seed =
  let p =
    Ou.create ~rng:(Rng.create seed) ~mu:c.mu ~tau:c.tau ~sigma:c.sigma ~lo:c.lo
      ~hi:c.hi ()
  in
  Array.init (samples_of c) (fun i ->
      let from = float_of_int i *. sample_every in
      Ou.catch_up p ~from ~until:(from +. sample_every) ?mu_at:c.mu_at ();
      Ou.value p)

type summary = {
  mean : float;
  sd : float;
  ac1 : float;
  ac10 : float;
  inc_sd : float;
  sorted : float array;
  at_bound : float;
}

let summarise c traces =
  let all = Array.concat (Array.to_list traces) in
  let mean = Rm_stats.Descriptive.mean all in
  let sd = Rm_stats.Descriptive.stddev all in
  let ac k =
    let num = ref 0.0 and n = ref 0 in
    Array.iter
      (fun tr ->
        for t = 0 to Array.length tr - 1 - k do
          num := !num +. ((tr.(t) -. mean) *. (tr.(t + k) -. mean));
          incr n
        done)
      traces;
    !num /. float_of_int !n /. (sd *. sd)
  in
  let incs =
    Array.concat
      (Array.to_list
         (Array.map
            (fun tr -> Array.init (Array.length tr - 1) (fun t -> tr.(t + 1) -. tr.(t)))
            traces))
  in
  let sorted = Array.copy all in
  Array.sort Float.compare sorted;
  let near = Array.fold_left (fun n x -> if x < c.lo +. 1e-3 then n + 1 else n) 0 all in
  {
    mean;
    sd;
    ac1 = ac 1;
    ac10 = ac 10;
    inc_sd = Rm_stats.Descriptive.stddev incs;
    sorted;
    at_bound = float_of_int near /. float_of_int (Array.length all);
  }

(* Largest gap between the two empirical CDFs; ties (the mass a clamp
   puts on a bound) are stepped over together. *)
let ks a b =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and d = ref 0.0 in
  while !i < na && !j < nb do
    let x = Float.min a.(!i) b.(!j) in
    while !i < na && a.(!i) <= x do incr i done;
    while !j < nb && b.(!j) <= x do incr j done;
    d :=
      Float.max !d
        (Float.abs
           ((float_of_int !i /. float_of_int na) -. (float_of_int !j /. float_of_int nb)))
  done;
  !d

let distances a b =
  {
    d_mean = Float.abs (a.mean -. b.mean) /. a.sd;
    d_sd = Float.abs ((b.sd /. a.sd) -. 1.0);
    d_ac1 = Float.abs (a.ac1 -. b.ac1);
    d_ac10 = Float.abs (a.ac10 -. b.ac10);
    d_ks = ks a.sorted b.sorted;
    d_inc = Float.abs ((b.inc_sd /. a.inc_sd) -. 1.0);
  }

(* The cases: a bare process at its lower bound, mid-range and high, then
   the four processes of one Scenario.normal node, with the parameters
   Node_model.create gives them (16 GB node). Every bound was fixed
   before the lazy path was compared: it is the largest distance seen
   between two independent clamped sets (40 seeds each, seed bases
   1000·k for k = 1..40, paired as 20 splits), times 1.25, rounded up to
   two significant figures. *)
let ou_cases () =
  let p = Scenario.normal.Scenario.sample_profile (Rng.create 1) (node ()) in
  let mem_gb = 16.0 in
  let bare label mu bounds =
    { label; mu; tau = 600.0; sigma = 0.3; lo = 0.0; hi = infinity; mu_at = None; bounds }
  in
  let b d_mean d_sd d_ac1 d_ac10 d_ks d_inc = { d_mean; d_sd; d_ac1; d_ac10; d_ks; d_inc } in
  [
    bare "at bound (mu 0.05)" 0.05 (b 0.33 0.23 0.014 0.13 0.14 0.039);
    bare "mid-range (mu 0.5)" 0.5 (b 0.38 0.18 0.0069 0.065 0.15 0.031);
    bare "high (mu 4)" 4.0 (b 0.36 0.24 0.0093 0.085 0.16 0.029);
    {
      label = "normal: diurnal load";
      mu = p.load_mu;
      tau = p.load_tau;
      sigma = p.load_sigma;
      lo = 0.0;
      hi = infinity;
      mu_at = Some (fun now -> Node_model.diurnal_mu p ~now);
      bounds = b 0.16 0.11 0.0005 0.0053 0.14 0.013;
    };
    {
      label = "normal: util";
      mu = p.util_base_pct;
      tau = 1800.0;
      sigma = p.util_sigma_pct;
      lo = 0.0;
      hi = 100.0;
      mu_at = None;
      bounds = b 0.37 0.14 0.0013 0.013 0.19 0.017;
    };
    {
      label = "normal: mem";
      mu = p.mem_used_frac_mu *. mem_gb;
      tau = 3600.0;
      sigma = 0.05 *. mem_gb;
      lo = 0.05 *. mem_gb;
      hi = 0.95 *. mem_gb;
      mu_at = None;
      bounds = b 0.31 0.19 0.001 0.009 0.15 0.0087;
    };
    {
      label = "normal: users";
      mu = p.users_mu;
      tau = 2400.0;
      sigma = 0.6 *. Float.max 0.5 p.users_mu;
      lo = 0.0;
      hi = infinity;
      mu_at = None;
      bounds = b 0.33 0.13 0.0013 0.013 0.19 0.014;
    };
  ]

let test_lazy_ou_matches_clamped_ticks () =
  let seeds = 40 in
  List.iter
    (fun c ->
      let set trace base = Array.init seeds (fun i -> trace c ~seed:(base + i)) in
      let eager = summarise c (set clamped_trace 1000) in
      let lazy_ = summarise c (set lazy_trace 500_000) in
      let d = distances eager lazy_ in
      (* The mass at the bound is reported, not gated: it already differs
         between tick rates of the clamped step itself. *)
      Printf.printf
        "%-22s mean %.4f sd %.4f ac1 %.4f ac10 %.4f ks %.4f inc %.4f | \
         P(x < lo+1e-3) clamped %.4f lazy %.4f\n"
        c.label d.d_mean d.d_sd d.d_ac1 d.d_ac10 d.d_ks d.d_inc eager.at_bound
        lazy_.at_bound;
      let gate name got bound =
        if got > bound then
          Alcotest.failf "%s: %s distance %.4f over its bound %.4f" c.label name got
            bound
      in
      gate "mean" d.d_mean c.bounds.d_mean;
      gate "sd" d.d_sd c.bounds.d_sd;
      gate "lag-1 autocorrelation" d.d_ac1 c.bounds.d_ac1;
      gate "lag-10 autocorrelation" d.d_ac10 c.bounds.d_ac10;
      gate "KS" d.d_ks c.bounds.d_ks;
      gate "increment sd" d.d_inc c.bounds.d_inc)
    (ou_cases ())

(* A gap of at most tau/10 is one exact step; a longer one is split into
   equal steps against the mean at each step's end. *)
let test_ou_catch_up_steps () =
  let mk seed = Ou.create ~rng:(Rng.create seed) ~mu:1.0 ~tau:600.0 ~sigma:0.3 ~lo:0.0 () in
  let a = mk 21 and b = mk 21 in
  Ou.catch_up a ~from:0.0 ~until:6.0 ();
  Alcotest.(check (float 0.0)) "a 6 s gap is one step" (Ou.step b ~dt:6.0 ()) (Ou.value a);
  let mu_at s = 1.0 +. (s /. 1000.0) in
  Ou.catch_up a ~from:6.0 ~until:246.0 ~mu_at ();
  List.iter (fun s -> ignore (Ou.step b ~dt:60.0 ~mu:(mu_at s) ())) [ 66.0; 126.0; 186.0; 246.0 ];
  Alcotest.(check (float 0.0)) "a 240 s gap is four 60 s steps" (Ou.value b) (Ou.value a);
  Alcotest.check_raises "backwards" (Invalid_argument "Ou_process.catch_up: until < from")
    (fun () -> Ou.catch_up a ~from:10.0 ~until:5.0 ())

let test_ou_reflects () =
  (* A step that lands below the bound comes back as far above it. *)
  let p = Ou.create ~rng:(Rng.create 1) ~mu:(-10.0) ~tau:1.0 ~sigma:0.0 ~lo:0.0 ~init:0.0 () in
  Alcotest.(check (float 1e-9)) "mirrored at lo" (10.0 *. (1.0 -. exp (-1.0)))
    (Ou.step p ~dt:1.0 ());
  let q = Ou.create ~rng:(Rng.create 1) ~mu:5.0 ~tau:1.0 ~sigma:0.0 ~lo:0.0 ~hi:1.0 ~init:1.0 () in
  let v = Ou.step q ~dt:10.0 () in
  (* mu + (1 - mu) e^-10 is about 4.9998: folded back into [0, 1]. *)
  Alcotest.(check bool) "folded into [lo, hi]" true (v >= 0.0 && v <= 1.0);
  Alcotest.(check (float 1e-9)) "double reflection" (5.0 -. (4.0 *. exp (-10.0)) -. 4.0) v

(* --- Flow_gen ----------------------------------------------------------------- *)

let test_flow_gen_population () =
  let params = { Flow_gen.default with arrival_rate_per_s = 0.5 } in
  let fg = Flow_gen.create ~rng:(Rng.create 12) ~node_count:6 ~params in
  Flow_gen.advance fg ~now:600.0 ~switch_of_node:(fun n -> n / 3);
  Alcotest.(check bool) "population present" true (Flow_gen.active_count fg > 0);
  List.iter
    (fun (f : Flow.t) ->
      Alcotest.(check bool) "src valid" true (f.Flow.src >= 0 && f.Flow.src < 6);
      Alcotest.(check bool) "demand positive" true (f.Flow.demand_mb_s > 0.0);
      Alcotest.(check bool) "demand capped" true
        (f.Flow.demand_mb_s <= params.Flow_gen.demand_cap_mb_s))
    (Flow_gen.active_flows fg)

let test_flow_gen_hotspot_bias () =
  let params =
    { Flow_gen.default with
      arrival_rate_per_s = 1.0;
      hotspot = Some (1, 0.9);
      p_external = 1.0 }
  in
  let fg = Flow_gen.create ~rng:(Rng.create 13) ~node_count:10 ~params in
  Flow_gen.advance fg ~now:2000.0 ~switch_of_node:(fun n -> n / 5);
  let flows = Flow_gen.active_flows fg in
  let on_hotspot =
    List.length (List.filter (fun (f : Flow.t) -> f.Flow.src >= 5) flows)
  in
  Alcotest.(check bool) "most sources on hotspot switch" true
    (float_of_int on_hotspot > 0.6 *. float_of_int (List.length flows))

let test_flow_gen_turnover () =
  let params =
    { Flow_gen.default with arrival_rate_per_s = 0.5; p_elephant = 0.0;
      short_mean_duration_s = 10.0 }
  in
  let fg = Flow_gen.create ~rng:(Rng.create 14) ~node_count:4 ~params in
  Flow_gen.advance fg ~now:1000.0 ~switch_of_node:(fun _ -> 0);
  let a = Flow_gen.active_flows fg in
  Flow_gen.advance fg ~now:2000.0 ~switch_of_node:(fun _ -> 0);
  let b = Flow_gen.active_flows fg in
  (* Short flows: populations 1000 s apart share nothing. *)
  let ids fs = List.map (fun (f : Flow.t) -> f.Flow.id) fs in
  List.iter
    (fun id -> Alcotest.(check bool) "no survivor" false (List.mem id (ids b)))
    (ids a)

(* --- Scenario -------------------------------------------------------------------- *)

let test_scenario_presets_distinct () =
  (* Weekend must be quieter than nightly in traffic, nightly quieter
     than busy in CPU load. *)
  let mean_of scenario f =
    let w = World.create ~cluster:(small_cluster ()) ~scenario ~seed:42 in
    World.advance w ~now:7200.0;
    Rm_stats.Descriptive.mean_list (List.init 6 (fun n -> f w n))
  in
  let load s = mean_of s (fun w n -> World.cpu_load w ~node:n) in
  Alcotest.(check bool) "weekend < busy load" true
    (load Scenario.weekend < load Scenario.busy);
  Alcotest.(check bool) "nightly < busy load" true
    (load Scenario.nightly < load Scenario.busy)

let test_scenario_lookup () =
  Alcotest.(check bool) "normal" true (Scenario.by_name "normal" <> None);
  Alcotest.(check bool) "hotspot2" true (Scenario.by_name "hotspot2" <> None);
  Alcotest.(check bool) "unknown" true (Scenario.by_name "nope" = None);
  List.iter
    (fun n -> Alcotest.(check bool) n true (Scenario.by_name n <> None))
    Scenario.all_names

let test_scenario_hotspot_family () =
  (* "hotspot<N>" parses for any N; the switch only gets range-checked
     against a concrete topology at World.create time. *)
  (match Scenario.by_name "hotspot7" with
  | Some sc -> (
    Alcotest.(check string) "name carries the index" "hotspot7" sc.Scenario.name;
    match sc.Scenario.flow_params.Rm_workload.Flow_gen.hotspot with
    | Some (switch, _) -> Alcotest.(check int) "switch 7" 7 switch
    | None -> Alcotest.fail "hotspot scenario without a hotspot")
  | None -> Alcotest.fail "hotspot7 did not parse");
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " rejected") true (Scenario.by_name bad = None))
    [ "hotspot"; "hotspotx"; "hotspot-1"; "hotspot1.5"; "Hotspot1" ]

let test_scenario_hotspot_out_of_range () =
  (* small_cluster has 2 switches; asking for switch 9 must fail loudly
     at world construction, not silently generate no traffic. *)
  (match Scenario.by_name "hotspot9" with
  | Some sc -> (
    match World.create ~cluster:(small_cluster ()) ~scenario:sc ~seed:1 with
    | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the switch" true
        (let needle = "switch 9" in
         let h = String.length msg and n = String.length needle in
         let rec go i = i + n <= h && (String.sub msg i n = needle || go (i + 1)) in
         go 0)
    | _ -> Alcotest.fail "out-of-range hotspot accepted")
  | None -> Alcotest.fail "hotspot9 did not parse");
  (* In-range indices are fine. *)
  match Scenario.by_name "hotspot1" with
  | Some sc ->
    ignore (World.create ~cluster:(small_cluster ()) ~scenario:sc ~seed:1)
  | None -> Alcotest.fail "hotspot1 did not parse"

(* --- World ---------------------------------------------------------------------- *)

let test_world_determinism () =
  let mk () =
    let w = World.create ~cluster:(small_cluster ()) ~scenario:Scenario.normal ~seed:77 in
    World.advance w ~now:3600.0;
    List.init 6 (fun n -> World.cpu_load w ~node:n)
  in
  let a = mk () and b = mk () in
  List.iter2 (fun x y -> Alcotest.(check (float 1e-12)) "same" x y) a b

let test_world_seed_changes_world () =
  let w1 = World.create ~cluster:(small_cluster ()) ~scenario:Scenario.normal ~seed:1 in
  let w2 = World.create ~cluster:(small_cluster ()) ~scenario:Scenario.normal ~seed:2 in
  World.advance w1 ~now:3600.0;
  World.advance w2 ~now:3600.0;
  let l1 = List.init 6 (fun n -> World.cpu_load w1 ~node:n) in
  let l2 = List.init 6 (fun n -> World.cpu_load w2 ~node:n) in
  Alcotest.(check bool) "different" true (l1 <> l2)

let test_world_advance_lenient () =
  let w = World.create ~cluster:(small_cluster ()) ~scenario:Scenario.normal ~seed:3 in
  World.advance w ~now:100.0;
  let before = World.cpu_load w ~node:0 in
  World.advance w ~now:50.0;
  (* no-op *)
  Alcotest.(check (float 1e-12)) "no change" before (World.cpu_load w ~node:0);
  Alcotest.(check (float 1e-12)) "clock kept" 100.0 (World.now w)

let test_world_liveness () =
  let w = World.create ~cluster:(small_cluster ()) ~scenario:Scenario.quiet ~seed:4 in
  Alcotest.(check int) "all up" 6 (List.length (World.up_nodes w));
  World.set_down w ~node:2;
  Alcotest.(check bool) "down" false (World.is_up w ~node:2);
  Alcotest.(check int) "five up" 5 (List.length (World.up_nodes w));
  World.set_up w ~node:2;
  Alcotest.(check int) "back up" 6 (List.length (World.up_nodes w))

let test_world_attach_ticks () =
  let sim = Rm_engine.Sim.create () in
  let w = World.create ~cluster:(small_cluster ()) ~scenario:Scenario.normal ~seed:5 in
  World.attach w ~sim ~period:10.0 ~until:100.0;
  Rm_engine.Sim.run_until sim 100.0;
  Alcotest.(check bool) "world advanced" true (World.now w >= 90.0)

let test_world_busy_loaded () =
  let w = World.create ~cluster:(small_cluster ()) ~scenario:Scenario.busy ~seed:6 in
  World.advance w ~now:7200.0;
  let loads = List.init 6 (fun n -> World.cpu_load w ~node:n) in
  let mean = Rm_stats.Descriptive.mean_list loads in
  let wq = World.create ~cluster:(small_cluster ()) ~scenario:Scenario.quiet ~seed:6 in
  World.advance wq ~now:7200.0;
  let quiet_mean =
    Rm_stats.Descriptive.mean_list (List.init 6 (fun n -> World.cpu_load wq ~node:n))
  in
  Alcotest.(check bool) "busy >> quiet" true (mean > quiet_mean +. 0.5)

(* Node reads are lazy, but nothing random outside the node models
   depends on when the world is advanced: the flow population and the
   fair-share answers at a time are bit-identical for any tick rate. *)
let test_world_network_tick_independent () =
  let mk () =
    World.create ~cluster:(Cluster.iitk_reference ()) ~scenario:Scenario.busy
      ~seed:91
  in
  let fine = mk () and coarse = mk () in
  let nodes = Cluster.node_count (World.cluster fine) in
  let snapshot w =
    ( Rm_netsim.Network.flows (World.network w),
      List.init nodes (fun node -> World.nic_rate_mb_s w ~node),
      List.init 8 (fun i ->
          Rm_netsim.Network.available_bandwidth_mb_s (World.network w)
            ~src:(i * 7) ~dst:(((i * 7) + 13) mod nodes)) )
  in
  let changes = ref 0 and last = ref [] in
  for j = 1 to 300 do
    for i = (60 * (j - 1)) + 1 to 60 * j do
      World.advance fine ~now:(float_of_int i /. 10.0)
    done;
    World.advance coarse ~now:(float_of_int j *. 6.0);
    let flows, rates, bws = snapshot coarse in
    let flows', rates', bws' = snapshot fine in
    Alcotest.(check bool) "same flows" true (flows = flows');
    Alcotest.(check (list (float 0.0))) "same NIC rates" rates rates';
    Alcotest.(check (list (float 0.0))) "same bandwidths" bws bws';
    if flows <> !last then incr changes;
    last := flows
  done;
  Alcotest.(check bool) "the population turned over" true (!changes > 20)

(* Registering or releasing a job and degrading a NIC drop the kept
   fair-share solution with its per-epoch tables and probe memo: every
   answer (bandwidth, latency, NIC rate) equals a freshly solved
   network's. *)
let test_world_job_and_nic_invalidate () =
  let w = World.create ~cluster:(small_cluster ()) ~scenario:Scenario.normal ~seed:8 in
  World.advance w ~now:600.0;
  let topo = Cluster.topology (World.cluster w) in
  let answers net =
    List.concat_map
      (fun src ->
        Rm_netsim.Network.nic_rate_mb_s net ~node:src
        :: List.concat_map
             (fun dst ->
               if src = dst then []
               else
                 [
                   Rm_netsim.Network.available_bandwidth_mb_s net ~src ~dst;
                   Rm_netsim.Network.latency_us net ~src ~dst;
                 ])
             (List.init 6 Fun.id))
      (List.init 6 Fun.id)
  in
  let fresh () =
    let net = Rm_netsim.Network.create topo in
    for node = 0 to 5 do
      let link = Rm_cluster.Topology.access_link topo ~node in
      Rm_netsim.Network.set_capacity_scale net ~link_id:link.Rm_cluster.Topology.link_id
        (World.nic_scale w ~node)
    done;
    Rm_netsim.Network.set_flows net (Rm_netsim.Network.flows (World.network w));
    answers net
  in
  let step label =
    let before = answers (World.network w) in
    fun () ->
      let after = answers (World.network w) in
      Alcotest.(check (list (float 0.0))) label (fresh ()) after;
      Alcotest.(check bool) (label ^ " moved an answer") true (before <> after)
  in
  let check = step "register" in
  let job = World.register_job w ~load:[ (0, 2.0) ] ~flows:[ (0, Flow.Node 4, 200.0) ] in
  check ();
  let check = step "nic scale" in
  World.set_nic_scale w ~node:4 0.3;
  check ();
  let check = step "release" in
  World.release_job w job;
  check ()

(* Before [next_change] an advance leaves the very same live flows; at
   it, a flow is born or expires. *)
let test_flow_gen_next_change () =
  let fg = Flow_gen.create ~rng:(Rng.create 15) ~node_count:12 ~params:Flow_gen.default in
  let switch_of_node n = n / 4 in
  let changed = ref 0 in
  for _ = 1 to 200 do
    let next = Flow_gen.next_change fg in
    let before = Flow_gen.active_flows fg in
    Flow_gen.advance fg ~now:(Float.pred next) ~switch_of_node;
    Alcotest.(check bool) "nothing moves before next_change" true
      (List.equal ( == ) before (Flow_gen.active_flows fg));
    Flow_gen.advance fg ~now:next ~switch_of_node;
    if not (List.equal ( == ) before (Flow_gen.active_flows fg)) then incr changed
  done;
  Alcotest.(check int) "every next_change changed the live set" 200 !changed

let suites =
  [
    ( "workload.ou",
      [
        Alcotest.test_case "clamps" `Quick test_ou_clamps;
        Alcotest.test_case "mean reversion" `Quick test_ou_reverts_to_mean;
        Alcotest.test_case "zero dt" `Quick test_ou_zero_dt_no_change;
        Alcotest.test_case "mean override" `Quick test_ou_mean_override;
        Alcotest.test_case "stationary sd" `Quick test_ou_stationary_sd;
        Alcotest.test_case "reflects at the bounds" `Quick test_ou_reflects;
        Alcotest.test_case "catch-up steps" `Quick test_ou_catch_up_steps;
        Alcotest.test_case "lazy matches clamped ticks in distribution" `Quick
          test_lazy_ou_matches_clamped_ticks;
      ] );
    ( "workload.spikes",
      [
        Alcotest.test_case "zero rate" `Quick test_spike_zero_rate;
        Alcotest.test_case "arrivals and expiry" `Quick test_spike_arrivals_and_expiry;
        Alcotest.test_case "monotonic time" `Quick test_spike_monotonic_time;
        Alcotest.test_case "long-horizon mean" `Quick test_spike_long_horizon_mean;
      ] );
    ( "workload.node_model",
      [
        Alcotest.test_case "ranges" `Quick test_node_model_ranges;
        Alcotest.test_case "util couples to load" `Quick
          test_node_model_util_couples_to_load;
      ] );
    ( "workload.flow_gen",
      [
        Alcotest.test_case "population" `Quick test_flow_gen_population;
        Alcotest.test_case "hotspot bias" `Quick test_flow_gen_hotspot_bias;
        Alcotest.test_case "turnover" `Quick test_flow_gen_turnover;
        Alcotest.test_case "next change" `Quick test_flow_gen_next_change;
      ] );
    ( "workload.scenario",
      [
        Alcotest.test_case "lookup" `Quick test_scenario_lookup;
        Alcotest.test_case "hotspot family" `Quick test_scenario_hotspot_family;
        Alcotest.test_case "hotspot out of range" `Quick
          test_scenario_hotspot_out_of_range;
        Alcotest.test_case "presets distinct" `Quick test_scenario_presets_distinct;
      ] );
    ( "workload.world",
      [
        Alcotest.test_case "determinism" `Quick test_world_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_world_seed_changes_world;
        Alcotest.test_case "lenient advance" `Quick test_world_advance_lenient;
        Alcotest.test_case "liveness" `Quick test_world_liveness;
        Alcotest.test_case "attach ticks" `Quick test_world_attach_ticks;
        Alcotest.test_case "busy vs quiet" `Quick test_world_busy_loaded;
        Alcotest.test_case "network tick-rate independent" `Quick
          test_world_network_tick_independent;
        Alcotest.test_case "jobs and NIC scale invalidate" `Quick
          test_world_job_and_nic_invalidate;
      ] );
  ]
