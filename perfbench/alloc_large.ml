(* alloc-large: one closed-loop caller making default-config
   Broker.decide calls on a 1,024-node synthetic tree snapshot. Before
   each decision a few nodes' load and bandwidth drift, so the model
   cache patches the network model (the O(touched·V) delta path); every
   [membership_every]-th step a grant is held out or returned through
   Overlay.apply + Snapshot.restrict, which changes the usable set and
   forces the full O(V²) rebuild. *)

module Snapshot = Rm_monitor.Snapshot
module Overlay = Rm_monitor.Overlay
module Matrix = Rm_stats.Matrix
module Rng = Rm_stats.Rng
module Cluster = Rm_cluster.Cluster
module Broker = Rm_core.Broker
module Model_cache = Rm_core.Model_cache
module Policies = Rm_core.Policies
module Allocation = Rm_core.Allocation
module Request = Rm_core.Request
module Metrics = Rm_telemetry.Metrics
module Span = Pb.Span
module Clock = Pb.Clock

let v = 1024
let per_switch = 16
let drift_nodes = 4
let membership_every = 8
let max_held = 4
let peak = 125.0
let weights = Broker.default_config.Broker.weights

let view x = { Rm_stats.Running_means.instant = x; m1 = x; m5 = 0.9 *. x; m15 = 0.8 *. x }

let node_info cluster ~time i c =
  let load = 8.0 *. c in
  Some
    {
      Snapshot.static = Cluster.node cluster i;
      users = 1 + (i mod 3);
      load = view load;
      util_pct = view (12.5 *. load);
      nic_mb_s = view (60.0 *. c);
      mem_avail_gb = view (15.0 -. (10.0 *. c));
      written_at = time;
    }

let pair_bw congestion i j = peak *. (1.0 -. (0.5 *. (congestion.(i) +. congestion.(j))))

(* A monitored view of a busy cluster without simulating one, built
   like bench/main.ml's synthetic_snapshot: per-node congestion drives
   both the load views and the pairwise matrices. *)
let build_snapshot ~seed =
  let switches = (v + per_switch - 1) / per_switch in
  let cluster =
    Cluster.homogeneous ~cores:8
      ~nodes_per_switch:
        (List.init switches (fun s ->
             if s = switches - 1 then v - (per_switch * (switches - 1)) else per_switch))
      ()
  in
  let rng = Rng.create seed in
  let congestion = Array.init v (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:0.8) in
  let time = 3600.0 in
  let bw = Matrix.square v ~init:peak and lat = Matrix.square v ~init:50.0 in
  for i = 0 to v - 1 do
    for j = 0 to v - 1 do
      if i <> j then begin
        Matrix.set bw i j (pair_bw congestion i j);
        Matrix.set lat i j (50.0 +. (100.0 *. (congestion.(i) +. congestion.(j))))
      end
    done
  done;
  ( {
      Snapshot.time;
      cluster;
      live = List.init v Fun.id;
      nodes = Array.init v (fun i -> node_info cluster ~time i congestion.(i));
      bw_mb_s = bw;
      peak_bw_mb_s = Matrix.square v ~init:peak;
      lat_us = lat;
    },
    congestion )

(* The next monitor reading: [drift_nodes] nodes change load and
   bandwidth; everything else is shared with [snap]. *)
let drift rng (snap : Snapshot.t) congestion =
  let time = snap.time +. 6.0 in
  let touched = Rng.sample_without_replacement rng ~k:drift_nodes ~n:v in
  let nodes = Array.copy snap.nodes and bw = Matrix.copy snap.bw_mb_s in
  List.iter
    (fun i ->
      congestion.(i) <-
        Float.min 0.9 (Float.max 0.0 (congestion.(i) +. Rng.gaussian rng ~mu:0.0 ~sigma:0.15));
      nodes.(i) <- node_info snap.cluster ~time i congestion.(i);
      for j = 0 to v - 1 do
        if i <> j then begin
          Matrix.set bw i j (pair_bw congestion i j);
          Matrix.set bw j i (pair_bw congestion i j)
        end
      done)
    touched;
  ({ snap with time; nodes; bw_mb_s = bw }, touched)

(* One request size, so decision times form one cluster for the delta
   steps and one for the full rebuilds instead of a mixture whose
   median moves with the draw. *)
let request = Request.make ~ppn:4 ~alpha:0.35 ~procs:32 ()

(* A held-out grant's footprint: the daemon's own, with its default
   load and traffic per rank. *)
let footprint allocation =
  let d = Rm_service.Server.default_config ~endpoint:(Rm_service.Server.Tcp 0) in
  Rm_service.Server.footprint
    { allocation; handle = None; expires_at = None; lease_s = None;
      load_per_proc = d.overlay_load_per_proc; traffic_mb_s_per_proc = d.overlay_traffic_mb_s_per_proc }

(* Eq. 4's un-normalised objective of a placement on the snapshot it
   was chosen from. *)
let eq4 snapshot (request : Request.t) (a : Allocation.t) =
  let m = Model_cache.get snapshot ~weights in
  let nodes = Allocation.node_ids a in
  (request.alpha *. Rm_core.Compute_load.total (Model_cache.loads m) ~nodes)
  +. (request.beta *. Rm_core.Network_load.total_edges (Model_cache.net m) ~nodes)

(* The reference and the production path must pick the same nodes with
   the same procs each. Their placement order may differ: between
   renormalisations the delta-patched network model drifts by a few
   ulps (Network_load.apply_delta), which can flip the start-node
   tie-break between two candidates that grow the same node set. *)
let same_placement (a : Allocation.t) (b : Allocation.t) =
  List.sort compare a.entries = List.sort compare b.entries

(* Five cold set-ups, each the snapshot build plus the first model
   build, timed one at a time. Only the last is kept, and the one before
   is collected before the next is built, so peak RSS reflects one. *)
let setup ~seed =
  let last = ref None in
  let times =
    List.init 5 (fun _ ->
        last := None;
        Model_cache.clear ();
        Gc.full_major ();
        let r, t =
          Clock.time (fun () ->
              let s, c = build_snapshot ~seed in
              let m = Model_cache.get s ~weights in
              ignore (Model_cache.net m);
              ignore (Model_cache.pc m);
              (s, c))
        in
        last := Some r;
        t)
  in
  (Option.get !last, Pb.Pct.median times)

type step = {
  compose_s : float;
  derive_s : float;
  decide_s : float;
  full : bool;  (** the derive rebuilt the network model *)
}

(* Registry counters read around each step's timed calls only, so the
   benchmark's own model reads (eq4, the reference check) stay out. *)
let counter_names =
  [ "core.nl.delta_applied"; "core.nl.delta_invalidated"; "core.model_cache.hits";
    "core.model_cache.misses"; "core.candidates.generated"; "core.alloc.pruned_starts" ]

type result = {
  steps : step list;
  costs : float list;  (** eq4 of each chosen allocation *)
  setup_s : float;
  failed : int;
  notes : string list;
  counters : (string * float) list;  (** summed over the steps *)
}

let run (o : Common.opts) ~spans =
  let (base, congestion), setup_s = setup ~seed:o.seed in
  let rng = Rng.create (o.seed + 1) in
  let overlay = Overlay.create ~node_count:v in
  let held = Queue.create () in
  let held_nodes () = Queue.fold (fun acc (_, a) -> Allocation.node_ids a @ acc) [] held in
  let base = ref base and prev = ref base and last = ref None in
  let steps = ref [] and costs = ref [] and notes = ref [] and failed = ref 0 in
  let check_step = 1 + (o.seed mod (2 * membership_every)) in
  let handles = Array.of_list (List.map (fun n -> Option.get (Metrics.find n)) counter_names) in
  let totals = Array.make (Array.length handles) 0.0 in
  let t_end = Int64.add (Clock.now_ns ()) (Int64.of_float (o.seconds *. 1e9)) in
  let k = ref 0 in
  while Int64.compare (Clock.now_ns ()) t_end < 0 || List.length !steps < 200 do
    incr k;
    let next, touched = drift rng !base congestion in
    base := next;
    if !k mod membership_every = 0 then begin
      let hold =
        Queue.is_empty held
        || (Queue.length held < max_held && !k / membership_every mod 2 = 1)
      in
      if hold then
        Option.iter
          (fun a ->
            let load, traffic = footprint a in
            Queue.push (Overlay.register overlay ~load ~traffic, a) held)
          !last
      else Overlay.remove overlay (fst (Queue.pop held))
    end;
    let excluded = held_nodes () in
    let c0 = Array.map Metrics.value handles in
    let t0 = Clock.now_ns () in
    let snap =
      Span.with_span spans ~req:!k "rm_monitor.compose" (fun () ->
          let c = Overlay.apply overlay !base in
          if excluded = [] then c else Snapshot.restrict c ~exclude:excluded)
    in
    let t1 = Clock.now_ns () in
    Span.with_span spans ~req:!k "rm_core.derive" (fun () ->
        let m = Model_cache.get_derived snap ~prev:!prev ~touched ~weights in
        ignore (Model_cache.net m);
        ignore (Model_cache.pc m));
    let t2 = Clock.now_ns () in
    let decision =
      Span.with_span spans ~req:!k "rm_core.decide" (fun () ->
          Broker.decide ~config:Broker.default_config ~snapshot:snap ~request ~rng)
    in
    let t3 = Clock.now_ns () in
    let c1 = Array.map Metrics.value handles in
    Array.iteri (fun j x -> totals.(j) <- totals.(j) +. x -. c0.(j)) c1;
    let d a b = Clock.s_of_ns (Int64.sub b a) in
    steps :=
      {
        compose_s = d t0 t1;
        derive_s = d t1 t2;
        decide_s = d t2 t3;
        full = c1.(0) = c0.(0) (* no core.nl.delta_applied *);
      }
      :: !steps;
    prev := snap;
    (match decision with
    | Ok (Broker.Allocated a) ->
      let nodes = Allocation.node_ids a in
      if Allocation.total_procs a <> request.procs then begin
        incr failed;
        notes := Printf.sprintf "step %d: %d procs for a %d-proc request" !k (Allocation.total_procs a) request.procs :: !notes
      end;
      if List.exists (fun n -> List.mem n excluded) nodes then begin
        incr failed;
        notes := Printf.sprintf "step %d: allocation uses a held-out node" !k :: !notes
      end;
      if !k = check_step then begin
        match Policies.allocate_naive ~policy:Policies.Network_load_aware ~snapshot:snap ~weights ~request ~rng with
        | Ok r when same_placement r a -> ()
        | _ ->
          incr failed;
          notes := Printf.sprintf "step %d: differs from Policies.allocate_naive" !k :: !notes
      end;
      costs := eq4 snap request a :: !costs;
      last := Some a
    | Ok (Broker.Wait _) | Error _ ->
      incr failed;
      notes := Printf.sprintf "step %d: no allocation" !k :: !notes;
      last := None)
  done;
  {
    steps = List.rev !steps;
    costs = List.rev !costs;
    setup_s;
    failed = !failed;
    notes = List.rev !notes;
    counters = List.combine counter_names (Array.to_list totals);
  }
