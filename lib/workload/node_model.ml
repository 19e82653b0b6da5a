module Rng = Rm_stats.Rng
module Node = Rm_cluster.Node

type profile = {
  load_mu : float;
  load_tau : float;
  load_sigma : float;
  spike_rate_per_s : float;
  spike_magnitude_lo : float;
  spike_magnitude_hi : float;
  spike_mean_duration_s : float;
  diurnal_amplitude : float;
  diurnal_phase_s : float;
  util_base_pct : float;
  util_sigma_pct : float;
  mem_used_frac_mu : float;
  users_mu : float;
}

type stochastic = {
  profile : profile;
  base_load : Ou_process.t;
  spikes : Spike_train.t;
  util_base : Ou_process.t;
  mem_used : Ou_process.t;
  users_level : Ou_process.t;
  mutable spike_level : float;
}

type source = Stochastic of stochastic | Replay of Trace_replay.node_trace

type t = { node : Node.t; source : source; mutable now : float }

let day_s = 86_400.0

let create ~rng ~(node : Node.t) ~profile =
  let sub () = Rng.split rng in
  let base_load =
    Ou_process.create ~rng:(sub ()) ~mu:profile.load_mu ~tau:profile.load_tau
      ~sigma:profile.load_sigma ~lo:0.0 ()
  in
  let magnitude g =
    Rng.uniform g ~lo:profile.spike_magnitude_lo ~hi:profile.spike_magnitude_hi
  in
  let spikes =
    Spike_train.create ~rng:(sub ()) ~rate_per_s:profile.spike_rate_per_s
      ~magnitude ~mean_duration_s:profile.spike_mean_duration_s ()
  in
  let util_base =
    Ou_process.create ~rng:(sub ()) ~mu:profile.util_base_pct ~tau:1800.0
      ~sigma:profile.util_sigma_pct ~lo:0.0 ~hi:100.0 ()
  in
  let mem_used =
    Ou_process.create ~rng:(sub ()) ~mu:(profile.mem_used_frac_mu *. node.mem_gb)
      ~tau:3600.0
      ~sigma:(0.05 *. node.mem_gb)
      ~lo:(0.05 *. node.mem_gb)
      ~hi:(0.95 *. node.mem_gb)
      ()
  in
  let users_level =
    Ou_process.create ~rng:(sub ()) ~mu:profile.users_mu ~tau:2400.0
      ~sigma:(0.6 *. Float.max 0.5 profile.users_mu)
      ~lo:0.0 ()
  in
  {
    node;
    source =
      Stochastic
        { profile; base_load; spikes; util_base; mem_used; users_level;
          spike_level = 0.0 };
    now = 0.0;
  }

let create_replay ~(node : Node.t) ~trace =
  { node; source = Replay trace; now = 0.0 }

let node t = t.node

let diurnal_mu p ~now =
  let phase = 2.0 *. Float.pi *. ((now +. p.diurnal_phase_s) /. day_s) in
  Float.max 0.0 (p.load_mu *. (1.0 +. (p.diurnal_amplitude *. sin phase)))

let advance t ~now =
  if now < t.now then invalid_arg "Node_model.advance: time went backwards";
  if now > t.now then begin
    let from = t.now in
    t.now <- now;
    match t.source with
    | Replay _ -> ()
    | Stochastic s ->
      Ou_process.catch_up s.base_load ~from ~until:now
        ~mu_at:(fun at -> diurnal_mu s.profile ~now:at) ();
      s.spike_level <- Spike_train.advance s.spikes ~now;
      Ou_process.catch_up s.util_base ~from ~until:now ();
      Ou_process.catch_up s.mem_used ~from ~until:now ();
      Ou_process.catch_up s.users_level ~from ~until:now ()
  end

let cpu_load t =
  match t.source with
  | Stochastic s -> Ou_process.value s.base_load +. s.spike_level
  | Replay trace -> Trace_replay.value_at trace.Trace_replay.load t.now

(* Utilization couples interactive activity with the running-process
   load. The coupling is sub-linear (0.55): runnable processes are not
   pinned at 100 % of a core each (I/O waits, scheduler overheads),
   which keeps the cluster-average utilization in Fig. 1c's 20-35 %
   band even when load spikes. *)
let cpu_util_pct t =
  match t.source with
  | Stochastic s ->
    let cores = float_of_int t.node.cores in
    let from_load = 55.0 *. Float.min 1.0 (cpu_load t /. cores) in
    Float.min 100.0 (Ou_process.value s.util_base +. from_load)
  | Replay trace ->
    Float.min 100.0
      (Float.max 0.0 (Trace_replay.value_at trace.Trace_replay.util_pct t.now))

let mem_used_gb t =
  match t.source with
  | Stochastic s -> Ou_process.value s.mem_used
  | Replay trace ->
    Float.min t.node.mem_gb
      (Float.max 0.0 (Trace_replay.value_at trace.Trace_replay.mem_used_gb t.now))

let users t =
  match t.source with
  | Stochastic s ->
    int_of_float (Float.round (Ou_process.value s.users_level))
  | Replay trace ->
    Stdlib.max 0
      (int_of_float
         (Float.round (Trace_replay.value_at trace.Trace_replay.users t.now)))

let pp ppf t =
  Format.fprintf ppf "%s load=%.2f util=%.1f%% mem=%.1fGB users=%d"
    t.node.hostname (cpu_load t) (cpu_util_pct t) (mem_used_gb t) (users t)
