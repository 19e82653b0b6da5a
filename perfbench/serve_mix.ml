(* serve-mix: a brokerd child process on the 60-node reference cluster
   with production defaults (grant overlay on, 10 ms refresh tick),
   driven by one single-threaded open-loop generator over at most nproc
   connections. Each step runs at a fixed rate; requests are timed from
   when they were due. The mix is allocate (8-16 procs, ppn 4, with a
   lease), v2 grow/shrink, and release; at most [max_active] grants are
   open at once, so a correct daemon never runs out of capacity and
   every refusal is a failure. *)

module Wire = Rm_service.Wire
module Allocation = Rm_core.Allocation
module Rng = Rm_stats.Rng
module Openloop = Pb.Openloop
module Span = Pb.Span
module Clock = Pb.Clock

(* Fixed once at about 1/5 and 2/3 of the highest rate meeting
   [latency_limit_ms] on the reference host (about 1,300 req/s). *)
let low_rps = 260.0
let high_rps = 870.0

(* max_rate_rps climbs from [high_rps] in [search_step] ratios. *)
let search_step = 1.1
let search_max = 6

let max_active = 8

(* Allocates are two fifths of the mix, so 2,750 slots carry about
   1,100 allocates: eleven beyond the p99. *)
let min_slots = 2750
let lease_s = 60.0

(* Allocate p99 limit for max_rate_rps: two refresh ticks. *)
let latency_limit_ms = 20.0

type op = Alloc of { grant : int; procs : int } | Grow of int | Shrink of int | Release of int

let grant_of = function Alloc a -> a.grant | Grow g | Shrink g | Release g -> g

let kind = function
  | Alloc _ -> "allocate"
  | Release _ -> "release"
  | Grow _ | Shrink _ -> "reshape"

let allocate procs =
  { Wire.procs; ppn = Some 4; alpha = 0.35; policy = None; wait_threshold = None;
    lease_s = Some lease_s; load_per_proc = None; traffic_mb_s_per_proc = None }

(* The wire request for [op]; [alloc_id] is the daemon's id of the
   grant it acts on (unused by an allocate). *)
let request op ~alloc_id =
  match op with
  | Alloc { procs; _ } -> Wire.Allocate (allocate procs)
  | Grow _ -> Wire.Grow { alloc_id; delta_procs = 4; grow_ppn = Some 4; grow_alpha = 0.35; grow_policy = None }
  | Shrink _ -> Wire.Shrink { alloc_id; delta_procs = 4 }
  | Release _ -> Wire.Release { alloc_id }

(* The op stream of one step, from the seed alone: each grant is
   allocated, reshaped with probability 1/2 a few slots later, and
   released 12-23 slots after its allocate. A grant's later ops wait
   for the reply to its earlier ones (Openloop's [ready]). *)
let plan rng ~first_grant ~n =
  let ops = Array.make n (Release 0) in
  let pending = ref [] and open_ = ref 0 and next = ref first_grant and seq = ref 0 in
  let push t op =
    incr seq;
    pending := List.merge compare [ (t, !seq, op) ] !pending
  in
  for i = 0 to n - 1 do
    match !pending with
    | (t, _, op) :: rest when t <= i || !open_ >= max_active ->
      pending := rest;
      ops.(i) <- op;
      (match op with Release _ -> decr open_ | Alloc _ | Grow _ | Shrink _ -> ())
    | _ ->
      let g = !next in
      incr next;
      incr open_;
      ops.(i) <- Alloc { grant = g; procs = 8 + (4 * Rng.int rng 3) };
      if Rng.bool rng then push (i + 4 + Rng.int rng 6) (if Rng.bool rng then Grow g else Shrink g);
      push (i + 12 + Rng.int rng 12) (Release g)
  done;
  (ops, !next)

(* --- connections --------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  inflight : (int * int * int) Queue.t;  (** step, slot, request id *)
}

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; buf = Buffer.create 4096; inflight = Queue.create () }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let write_line c s =
  let s = s ^ "\n" in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Complete lines now readable on [c]; raises End_of_file when the
   daemon closed the connection. *)
let read_lines c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then raise End_of_file;
  Buffer.add_subbytes c.buf chunk 0 n;
  let s = Buffer.contents c.buf in
  let parts = String.split_on_char '\n' s in
  let rec split = function
    | [ last ] -> ([], last)
    | l :: rest ->
      let ls, last = split rest in
      (l :: ls, last)
    | [] -> ([], "")
  in
  let lines, rest = split parts in
  Buffer.clear c.buf;
  Buffer.add_string c.buf rest;
  lines

(* One blocking request on an idle connection. *)
let rpc c ~req_id request =
  write_line c (Wire.encode_request { Wire.req_id; request });
  let rec wait () =
    match read_lines c with
    | [] -> wait ()
    | line :: _ -> line
  in
  match Wire.decode_response (wait ()) with
  | Ok { resp_id; response } when resp_id = req_id -> Ok response
  | Ok _ -> Error "reply id mismatch"
  | Error m -> Error m

(* --- the daemon ---------------------------------------------------------- *)

type daemon = { pid : int; sock : string }

let spawn (o : Common.opts) ~tag =
  let sock = Filename.concat o.out_dir (Printf.sprintf "brokerd-%d-%d.sock" (Unix.getpid ()) tag) in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile (Filename.concat o.out_dir "brokerd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process o.brokerd
      [| o.brokerd; "--socket"; sock; "--seed"; string_of_int o.seed |]
      Unix.stdin log log
  in
  Unix.close log;
  { pid; sock }

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

(* Spawn, then poll until the first status reply: the daemon's set-up
   time as a client sees it. *)
let start (o : Common.opts) ~tag =
  let t0 = Clock.now_ns () in
  let d = spawn o ~tag in
  let rec wait () =
    if Clock.since_s t0 > 120.0 then failwith "brokerd did not answer status within 120 s";
    match connect d.sock with
    | None ->
      Unix.sleepf 0.002;
      wait ()
    | Some c -> (
      match rpc c ~req_id:1 Wire.Status with
      | Ok (Wire.Status_info _) ->
        Unix.close c.fd;
        Clock.since_s t0
      | _ -> failwith "brokerd: bad status reply")
  in
  match wait () with
  | t -> (d, t)
  | exception e ->
    stop d;
    raise e

(* Registry counters scraped over the wire, summed over label sets. *)
let scrape c ~req_id =
  match rpc c ~req_id Wire.Metrics with
  | Ok (Wire.Metrics_text text) ->
    let samples = Rm_telemetry.Prometheus.parse text in
    fun name ->
      let n = Rm_telemetry.Prometheus.metric_name name in
      List.fold_left
        (fun acc (s : Rm_telemetry.Prometheus.sample) ->
          if s.sample_name = n then acc +. s.sample_value else acc)
        0.0 samples
  | _ -> failwith "brokerd: bad metrics reply"

(* --- one open-loop step -------------------------------------------------- *)

let describe = function
  | Wire.Error { code; message } -> Wire.error_code_name code ^ " (" ^ message ^ ")"
  | Wire.Retry _ -> "retry"
  | _ -> "unexpected reply kind"

type grant = {
  mutable alloc_id : int option;
  mutable nodes : int list;
  mutable busy : bool;  (** an op on this grant is in flight *)
  mutable last_reply : float;
  mutable released : bool;  (** its release has been sent *)
  mutable dead : bool;  (** its allocate was refused *)
}

type client = {
  conns : conn array;
  grants : (int, grant) Hashtbl.t;
  mutable next_req : int;
  mutable next_grant : int;
  mutable step_id : int;
  mutable failed : int;
  mutable attempted : int;
  mutable notes : (bool * string) list;  (** hard?, what failed; newest first *)
  rng : Rng.t;
}

type step = {
  rate : float;
  ops : op array;
  samples : Openloop.sample array;
  summary : Openloop.summary;
}

(* A hard failure is wrong output (shared nodes, mismatched ids); a soft
   one is a refusal or timeout, which only overload can excuse. *)
let fail ?(count = 1) cl ~hard fmt =
  Printf.ksprintf (fun s -> cl.failed <- cl.failed + count; cl.notes <- (hard, s) :: cl.notes) fmt

let note ?count cl fmt = fail ?count cl ~hard:false fmt
let wrong cl fmt = fail cl ~hard:true fmt

(* Two grants share a node while both are surely held: [g] was answered
   before [a]'s request went out, and nothing has been sent on [g]
   since. *)
let check_disjoint cl ~grant ~sent nodes =
  Hashtbl.iter
    (fun id g ->
      if id <> grant && (not g.busy) && (not g.released) && g.alloc_id <> None
         && g.last_reply < sent
         && List.exists (fun n -> List.mem n g.nodes) nodes
      then wrong cl "grants %d and %d hold the same node at once" id grant)
    cl.grants

(* The op stream of [n] slots and a transport that sends them over the
   client's connections, checks every reply and times it. *)
let transport cl ~n ~spans =
  cl.step_id <- cl.step_id + 1;
  let step_id = cl.step_id in
  let ops, next_grant = plan cl.rng ~first_grant:cl.next_grant ~n in
  cl.next_grant <- next_grant;
  let t0 = Clock.now_ns () in
  let now () = Clock.since_s t0 in
  let sent_at = Array.make n nan in
  let immediate = ref [] in
  let grant i = Hashtbl.find cl.grants (grant_of ops.(i)) in
  (* A grant counts against [max_active] from its allocate until its
     release is answered; the plan keeps to the bound in stream order,
     this keeps to it at the daemon when replies come late. *)
  let ready i =
    match ops.(i) with
    | Alloc _ -> Hashtbl.length cl.grants < max_active
    | _ -> (
      match Hashtbl.find_opt cl.grants (grant_of ops.(i)) with
      | None -> false
      | Some g -> g.dead || (g.alloc_id <> None && not g.busy))
  in
  let send i =
    cl.attempted <- cl.attempted + 1;
    sent_at.(i) <- now ();
    let op = ops.(i) in
    let request =
      match op with
      | Alloc { grant; _ } ->
        Hashtbl.replace cl.grants grant
          { alloc_id = None; nodes = []; busy = true; last_reply = 0.0; released = false; dead = false };
        Some (request op ~alloc_id:0)
      | Grow _ | Shrink _ | Release _ ->
        let g = grant i in
        if g.dead then None
        else begin
          g.busy <- true;
          (match op with Release _ -> g.released <- true | Alloc _ | Grow _ | Shrink _ -> ());
          Some (request op ~alloc_id:(Option.get g.alloc_id))
        end
    in
    match request with
    | None ->
      note cl "slot %d: op on a grant whose allocate was refused" i;
      (match op with Release g -> Hashtbl.remove cl.grants g | Alloc _ | Grow _ | Shrink _ -> ());
      immediate := (i, now ()) :: !immediate
    | Some request ->
      let c =
        Array.fold_left
          (fun best c -> if Queue.length c.inflight < Queue.length best.inflight then c else best)
          cl.conns.(0) cl.conns
      in
      let req_id = cl.next_req in
      cl.next_req <- req_id + 1;
      Queue.push (step_id, i, req_id) c.inflight;
      write_line c (Wire.encode_request { Wire.req_id; request })
  in
  let on_reply ~slot ~at response =
    let op = ops.(slot) in
    let g = grant slot in
    let sent = sent_at.(slot) in
    g.busy <- false;
    g.last_reply <- at;
    Span.record spans ~req:slot ("rm_service." ^ kind op)
      ~start_ns:(Int64.add t0 (Int64.of_float (sent *. 1e9)))
      ~stop_ns:(Int64.add t0 (Int64.of_float (at *. 1e9)));
    match (op, response) with
    | Alloc { grant; procs }, Wire.Allocated { alloc_id; allocation; _ } ->
      g.alloc_id <- Some alloc_id;
      g.nodes <- Allocation.node_ids allocation;
      if Allocation.total_procs allocation <> procs then wrong cl "grant %d: wrong proc count" grant;
      check_disjoint cl ~grant ~sent g.nodes
    | Alloc { grant; _ }, r ->
      g.dead <- true;
      note cl "grant %d: allocate refused: %s" grant (describe r)
    | (Grow grant | Shrink grant), Wire.Reconfigured { allocation; _ } ->
      g.nodes <- Allocation.node_ids allocation;
      (match op with Grow _ -> check_disjoint cl ~grant ~sent g.nodes | _ -> ())
    | Release grant, Wire.Released _ -> Hashtbl.remove cl.grants grant
    | _, r -> note cl "slot %d: %s refused: %s" slot (kind op) (describe r)
  in
  let poll ~until =
    match !immediate with
    | _ :: _ as l ->
      immediate := [];
      l
    | [] -> (
      let fds = Array.to_list (Array.map (fun c -> c.fd) cl.conns) in
      let timeout = Float.max 0.0 (until -. now ()) in
      match Unix.select fds [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      | readable, _, _ ->
        let at = now () in
        List.concat_map
          (fun c ->
            if not (List.mem c.fd readable) then []
            else
              List.filter_map
                (fun line ->
                  match Queue.take_opt c.inflight with
                  | None ->
                    wrong cl "reply with no request outstanding";
                    None
                  | Some (sid, slot, req_id) -> (
                    match Wire.decode_response line with
                    | Error m ->
                      wrong cl "undecodable reply: %s" m;
                      if sid = step_id then Some (slot, at) else None
                    | Ok { resp_id; response } ->
                      if resp_id <> req_id then
                        wrong cl "reply id %d for request %d" resp_id req_id;
                      if sid <> step_id then None
                      else begin
                        on_reply ~slot ~at response;
                        Some (slot, at)
                      end))
                (read_lines c))
          (Array.to_list cl.conns))
  in
  (ops, { Openloop.now; ready; send; poll })

let step cl ~rate ~duration ~spans =
  let n = max 1 (int_of_float (Float.floor (duration *. rate))) in
  let ops, tr = transport cl ~n ~spans in
  let samples = Openloop.run ~rate ~duration ~drain_s:2.0 tr in
  let summary = Openloop.summarize samples ~duration in
  if summary.unanswered > 0 then
    note ~count:summary.unanswered cl "%d requests unanswered at %.0f req/s" summary.unanswered rate;
  { rate; ops; samples; summary }

(* Closed loop: slots go out in order as soon as the previous ones
   allow, with two requests in flight per connection. Returns completed
   requests per second. *)
let saturate cl ~n ~spans =
  let _, tr = transport cl ~n ~spans in
  let cap = 2 * Array.length cl.conns in
  let outstanding = ref 0 in
  let wait () =
    if tr.now () > 120.0 then failwith "saturation step did not finish within 120 s";
    outstanding := !outstanding - List.length (tr.poll ~until:(tr.now () +. 0.5))
  in
  let t0 = tr.now () in
  for i = 0 to n - 1 do
    while not (!outstanding < cap && tr.ready i) do
      wait ()
    done;
    tr.send i;
    incr outstanding
  done;
  while !outstanding > 0 do
    wait ()
  done;
  float_of_int n /. (tr.now () -. t0)

(* Release every grant still open after a step, one request at a time,
   so the next step starts from an empty cluster. *)
let release_all cl =
  let c = cl.conns.(0) in
  Hashtbl.iter
    (fun _ g ->
      match g.alloc_id with
      | Some alloc_id when not g.released ->
        cl.next_req <- cl.next_req + 1;
        (match rpc c ~req_id:cl.next_req (Wire.Release { alloc_id }) with
        | Ok (Wire.Released _) -> ()
        | _ -> note cl "cleanup release of %d failed" alloc_id)
      | _ -> ())
    cl.grants;
  Hashtbl.reset cl.grants

let latencies st ~keep = Openloop.latencies_ms st.samples ~keep:(fun i -> keep st.ops.(i))
let is_alloc = function Alloc _ -> true | Grow _ | Shrink _ | Release _ -> false

type result = {
  setup_s : float list;
  peak_rss_mb : float;
  low : step;
  high : step list;  (** [windows] consecutive steps at the high rate *)
  saturation_rps : float list;  (** [windows] closed-loop bursts; traced runs only *)
  search : step list;  (** rates above [high], in order, up to the first that fails *)
  max_rate_rps : float;  (** nan when the search did not run *)
  counters : (string * float) list;  (** registry deltas over the high steps *)
  high_wall_s : float;  (** wall time of the high steps alone *)
  failed : int;
  attempted : int;
  notes : string list;
}

(* A step meets the limit when the generator kept up, the backlog did
   not grow, nothing failed and allocate p99 stayed within the limit. *)
let p99_alloc st = Pb.Pct.at ~q:0.99 (Pb.Pct.sorted (latencies st ~keep:is_alloc))

let passes st ~failed_during =
  st.summary.valid && (not (Openloop.growing st.summary ~rate:st.rate))
  && failed_during = 0 && p99_alloc st <= latency_limit_ms

(* The highest rate meeting the limit, interpolated in log p99 between
   the last passing and the first failing step so that the figure moves
   smoothly instead of in whole search steps. *)
let max_rate ~high ~search =
  let rec go last = function
    | [] -> last.rate
    | (st, ok) :: rest ->
      if ok then go st rest
      else
        let p_lo = Float.log (Float.max 1e-3 (p99_alloc last))
        and p_hi = Float.log (Float.max 1e-3 (p99_alloc st)) in
        let lim = Float.log latency_limit_ms in
        if p_hi <= p_lo || lim <= p_lo then last.rate
        else last.rate +. ((st.rate -. last.rate) *. Float.min 1.0 ((lim -. p_lo) /. (p_hi -. p_lo)))
  in
  go high search

(* The high rate and the closed loop run as several windows and report
   medians over them: a p99 of one window moves with a single stall of
   the host, the median of three does not. *)
let windows = 3
let spawns = 5
let attempts = 5

let counter_names =
  [ "core.service.requests"; "core.service.batches"; "core.service.snapshots";
    "core.service.retry_after"; "core.service.rejected" ]

(* How many times [run] calls its [interlude]: before the low step and
   after it and after each high window, with no request in flight. *)
let interludes = windows + 2

(* With [search] (traced runs) the run also measures closed-loop
   saturation and searches for max_rate_rps; both move too much from run
   to run on a shared host to gate on. *)
let run (o : Common.opts) ~spans ~saturation_slots ~search ~interlude =
  (* Set-up is measured over [spawns] daemons; the last one serves. *)
  let setups = List.init (spawns - 1) (fun i -> let d, t = start o ~tag:i in stop d; t) in
  let d, t = start o ~tag:spawns in
  Fun.protect ~finally:(fun () -> stop d) (fun () ->
      let nconn = max 1 (Domain.recommended_domain_count ()) in
      let conns = Array.init nconn (fun _ -> Option.get (connect d.sock)) in
      let cl =
        { conns; grants = Hashtbl.create 64; next_req = 100; next_grant = 1; step_id = 0;
          failed = 0; attempted = 0; notes = []; rng = Rng.create o.seed }
      in
      (* Each step runs long enough for [min_slots] requests, so its
         allocate p99 has at least ten samples beyond it. *)
      let duration share rate = Float.max (share *. o.seconds) (float_of_int min_slots /. rate) in
      let run_step ~rate ~duration =
        let f0 = cl.failed and n0 = List.length cl.notes in
        let st = step cl ~rate ~duration ~spans in
        release_all cl;
        (st, cl.failed - f0, n0)
      in
      (* A step the generator fell behind in measures the host, not the
         daemon: it is run again, up to [attempts] times in all. *)
      let valid_step ~rate ~duration =
        let rec go k =
          let ((st, _, _) as r) = run_step ~rate ~duration in
          if st.summary.valid || k >= attempts then r
          else begin
            Printf.eprintf "serve-mix: generator fell behind at %.0f req/s (lag p99 %.2f ms); repeating the step\n%!"
              rate st.summary.lag_p99_ms;
            go (k + 1)
          end
        in
        go 1
      in
      interlude ();
      let low, _, _ = valid_step ~rate:low_rps ~duration:(duration 0.2 low_rps) in
      interlude ();
      let c0 = scrape conns.(0) ~req_id:1 in
      let high_wall_s = ref 0.0 in
      let high =
        List.init windows (fun _ ->
            let r, s =
              Clock.time (fun () ->
                  valid_step ~rate:high_rps ~duration:(duration (0.3 /. float_of_int windows) high_rps))
            in
            high_wall_s := !high_wall_s +. s;
            interlude ();
            r)
      in
      let c1 = scrape conns.(0) ~req_id:2 in
      let saturation_rps =
        if not search then []
        else
          List.init windows (fun _ ->
              let r = saturate cl ~n:(saturation_slots / windows) ~spans in
              release_all cl;
              r)
      in
      let last_high, high_failed, _ = List.nth high (windows - 1) in
      let rec climb rate k acc =
        if k >= search_max then List.rev acc
        else
          let st, f, n0 = run_step ~rate ~duration:(duration 0.0 rate) in
          let ok = passes st ~failed_during:f in
          (* Refusals and timeouts while searching past capacity are the
             limit being found, not a daemon fault; wrong output is. *)
          if not ok then begin
            let k = List.length cl.notes - n0 in
            let hard = List.filter fst (List.filteri (fun i _ -> i < k) cl.notes) in
            cl.failed <- cl.failed - f + List.length hard;
            cl.notes <- hard @ List.filteri (fun i _ -> i >= k) cl.notes;
            List.rev ((st, false) :: acc)
          end
          else climb (rate *. search_step) (k + 1) ((st, true) :: acc)
      in
      let searched =
        if search && passes last_high ~failed_during:high_failed then
          climb (high_rps *. search_step) 0 []
        else []
      in
      let peak_rss_mb = Common.peak_rss_mb (Some d.pid) in
      Array.iter (fun c -> Unix.close c.fd) conns;
      {
        setup_s = t :: setups;
        peak_rss_mb;
        low;
        high = List.map (fun (st, _, _) -> st) high;
        saturation_rps;
        search = List.map fst searched;
        max_rate_rps =
          (match (search, searched) with
          | false, _ -> nan
          (* The high rate itself failed: interpolate down from it. *)
          | true, [] -> max_rate ~high:low ~search:[ (last_high, false) ]
          | true, s -> max_rate ~high:last_high ~search:s);
        counters = List.map (fun n -> (n, c1 n -. c0 n)) counter_names;
        high_wall_s = !high_wall_s;
        failed = cl.failed;
        attempted = cl.attempted;
        notes = List.rev_map snd cl.notes;
      })
