(* serve-mix's op stream replayed single-threaded, in process, through
   the daemon's own tick path: a Server built as brokerd builds it
   (production defaults, telemetry on) but never started, so no accept
   or tick thread runs. Each request is wire-encoded and decoded, served
   by Server.serve_batch as a one-item batch and its reply encoded and
   decoded again; the snapshot refresh falls every tick_s of arrival
   time. The replay runs in chunks between the live steps, so that its
   samples spread over the whole run rather than one stretch of it,
   which a slow spell of the host would shift as a whole. Unlike the live round trip this leaves out threads, sockets
   and queueing, which on a shared host move too much from run to run
   to gate on. *)

module Server = Rm_service.Server
module Wire = Rm_service.Wire
module Overlay = Rm_monitor.Overlay
module Snapshot = Rm_monitor.Snapshot
module Model_cache = Rm_core.Model_cache
module Allocation = Rm_core.Allocation
module Clock = Pb.Clock

(* The work item a brokerd worker submits for a request that rides the
   admission queue (Server.handle_request, overlay on). *)
let work_of = function
  | Wire.Allocate p -> Server.Alloc_work p
  | Wire.Grow g -> Server.Grow_work g
  | Wire.Shrink { alloc_id; delta_procs } -> Server.Shrink_work { alloc_id; delta_procs }
  | Wire.Renegotiate r -> Server.Renegotiate_work r
  | Wire.Release { alloc_id } -> Server.Release_work { alloc_id }
  | Wire.Status | Wire.Metrics -> invalid_arg "Replay.work_of: answered off the tick path"

let serve t request =
  let p = { Server.work = work_of request; enqueued_at = Unix.gettimeofday (); reply = Server.Ivar.create () } in
  Server.serve_batch t [ p ];
  Server.Ivar.read p.reply

(* Advance and recapture as serve_batch does when its snapshot is a tick
   old, but on the replay's arrival clock: serve_batch itself is kept
   from refreshing on the wall clock. *)
let refresh (t : Server.t) =
  Mutex.lock t.state_mutex;
  Server.refresh_snapshot_locked t ~wall:(Unix.gettimeofday ());
  t.snapshot_taken_at <- infinity;
  Mutex.unlock t.state_mutex

type stages = { mutable wire : float; mutable refresh : float; mutable serve : float }

(* Isolated probes of the stages inside serve_batch, on the state the
   replay left and after its timings are done: overlay compose, the
   O(touched·V) model patch a grant change triggers, and the broker's
   sweep on a warm model. Microseconds per call. *)
let stage_probes (t : Server.t) =
  let n = 50 in
  let extra = serve t (Wire.Allocate (Serve_mix.allocate 16)) in
  let touched = match extra with Wire.Allocated { allocation; _ } -> Allocation.node_ids allocation | _ -> [] in
  let held = Server.held_nodes_locked t in
  let weights = t.config.broker.Rm_core.Broker.weights in
  let mean f = Common.us (Pb.Pct.mean (List.init n (fun _ -> f ()))) in
  let compose =
    mean (fun () ->
        snd (Clock.time (fun () -> Snapshot.restrict (Overlay.apply t.overlays t.snapshot) ~exclude:held)))
  in
  let prev = ref t.composed in
  let derive =
    mean (fun () ->
        let c = Overlay.apply t.overlays t.snapshot in
        let (), s =
          Clock.time (fun () ->
              let m = Model_cache.get_derived c ~prev:!prev ~touched ~weights in
              ignore (Model_cache.net m);
              ignore (Model_cache.pc m))
        in
        prev := c;
        s)
  in
  let sweep =
    mean (fun () ->
        snd (Clock.time (fun () ->
                 Rm_service.Batcher.serve_one ~base:t.config.broker ~snapshot:t.decide ~rng:t.rng
                   (Serve_mix.allocate 12))))
  in
  [ ("replay.compose_us", compose); ("replay.derive_us", derive); ("replay.sweep_us", sweep) ]

type t = {
  server : Server.t;
  ops : Serve_mix.op array;
  rate : float;
  st : stages;
  ids : (int, int) Hashtbl.t;  (** grant -> the daemon's alloc id *)
  mutable next : int;  (** the next op to replay *)
  mutable last_refresh : float;  (** arrival time of the last refresh *)
  mutable chunks : (Serve_mix.op * float) list list;
      (** each chunk's ops with their service times; newest first, both *)
  mutable errors : int;
}

(* A server built as brokerd builds it, with telemetry on. Stop it with
   [stop]. *)
let create ~seed ~out_dir ~rate ops =
  let sock = Filename.concat out_dir (Printf.sprintf "replay-%d.sock" (Unix.getpid ())) in
  let server =
    Rm_telemetry.Runtime.with_enabled (fun () ->
        Server.create { (Server.default_config ~endpoint:(Server.Unix_socket sock)) with seed })
  in
  server.snapshot_taken_at <- infinity;
  { server; ops; rate; st = { wire = 0.0; refresh = 0.0; serve = 0.0 }; ids = Hashtbl.create 16;
    next = 0; last_refresh = neg_infinity; chunks = []; errors = 0 }

let stop r = Server.stop r.server

(* Replays the next ops, arriving at [r.rate] per second, which fixes
   where the refreshes fall, until [seconds] have passed and at least
   [min_requests] were served. *)
let chunk r ~seconds ~min_requests =
  Rm_telemetry.Runtime.with_enabled @@ fun () ->
  let t = r.server and st = r.st in
  let timed add f =
    let x, s = Clock.time f in
    add s;
    x
  in
  let wire f = timed (fun s -> st.wire <- st.wire +. s) f in
  let first = r.next in
  let times = ref [] in
  let t_end = Int64.add (Clock.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  while r.next < Array.length r.ops && (r.next - first < min_requests || Int64.compare (Clock.now_ns ()) t_end < 0) do
    let k = r.next in
    r.next <- k + 1;
    let op = r.ops.(k) and arrival = float_of_int k /. r.rate in
    let alloc_id = Option.value (Hashtbl.find_opt r.ids (Serve_mix.grant_of op)) ~default:(-1) in
    let t0 = Clock.now_ns () in
    if arrival -. r.last_refresh >= t.config.tick_s then begin
      timed (fun s -> st.refresh <- st.refresh +. s) (fun () -> refresh t);
      r.last_refresh <- arrival
    end;
    let line = wire (fun () -> Wire.encode_request { Wire.req_id = k; request = Serve_mix.request op ~alloc_id }) in
    let response =
      match wire (fun () -> Wire.decode_request line) with
      | Ok { request; _ } -> timed (fun s -> st.serve <- st.serve +. s) (fun () -> serve t request)
      | Error { code; message; _ } -> Wire.Error { code; message }
    in
    let reply = wire (fun () -> Wire.decode_response (Wire.encode_response { Wire.resp_id = k; response })) in
    times := (op, Clock.since_s t0) :: !times;
    match reply with
    | Ok { resp_id; response } when resp_id = k -> (
      match response with
      | Wire.Allocated { alloc_id; _ } -> Hashtbl.replace r.ids (Serve_mix.grant_of op) alloc_id
      | Wire.Error _ | Wire.Retry _ -> r.errors <- r.errors + 1
      | _ -> ())
    | Ok _ | Error _ -> r.errors <- r.errors + 1
  done;
  r.chunks <- !times :: r.chunks

(* Each chunk's ops with their service times in seconds, in order; the
   per-op stage means and the isolated stage probes in microseconds;
   and how many ops the tick path refused. The probes change the
   server's state: call this once, after the last chunk. *)
let result r =
  let us x = Common.us x /. float_of_int (max 1 r.next) in
  ( List.rev_map List.rev r.chunks,
    [ ("replay.wire_us", us r.st.wire); ("replay.refresh_us", us r.st.refresh); ("replay.serve_us", us r.st.serve) ]
    @ Rm_telemetry.Runtime.with_enabled (fun () -> stage_probes r.server),
    r.errors )
