(* A small reusable pool of OCaml 5 domains for data-parallel sweeps.

   Spawning a domain costs far more than one allocator call, so the
   pool keeps its workers alive between [run]s, parked on a condition
   variable. Pools are memoized per size ([get]) and shut down by an
   [at_exit] hook — the main domain must outlive every spawned domain,
   so leaving parked workers behind at exit would hang the runtime.

   Concurrency contract: one [run] at a time per pool, issued from the
   main domain (the allocator call sites are all single-threaded). The
   job closure is published and the completion count read under the
   pool mutex, so writes a worker makes into caller-provided buffers
   are visible to the caller once [run] returns. *)

type t = {
  workers : int;  (** total parallelism, including the calling domain *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : (int -> unit) option;
  mutable generation : int;  (** bumped once per [run]; workers track it *)
  mutable pending : int;  (** spawned workers still inside the current job *)
  mutable first_error : (exn * Printexc.raw_backtrace) option;
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
}

(* More workers than cores only adds scheduling noise, and each domain
   costs a minor heap; clamp requests to a small ceiling. *)
let max_workers = 16

let size t = t.workers

let record_error t exn bt =
  Mutex.lock t.mutex;
  if t.first_error = None then t.first_error <- Some (exn, bt);
  Mutex.unlock t.mutex

let worker_loop t w =
  let seen = ref 0 in
  Mutex.lock t.mutex;
  let rec loop () =
    while t.generation = !seen && not t.stopped do
      Condition.wait t.work_ready t.mutex
    done;
    if not t.stopped then begin
      seen := t.generation;
      let job = match t.job with Some f -> f | None -> assert false in
      Mutex.unlock t.mutex;
      (try job w
       with exn -> record_error t exn (Printexc.get_raw_backtrace ()));
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.work_done;
      loop ()
    end
  in
  loop ();
  Mutex.unlock t.mutex

let create workers =
  let workers = max 1 (min workers max_workers) in
  let t =
    {
      workers;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      pending = 0;
      first_error = None;
      stopped = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (workers - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let run t f =
  if t.workers = 1 then f 0
  else begin
    Mutex.lock t.mutex;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      invalid_arg "Domain_pool.run: pool is shut down"
    end;
    t.job <- Some f;
    t.first_error <- None;
    t.generation <- t.generation + 1;
    t.pending <- t.workers - 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    (* The caller is worker 0: it pulls its own share of the work
       instead of blocking while the spawned domains do everything. *)
    let caller_error =
      try
        f 0;
        None
      with exn -> Some (exn, Printexc.get_raw_backtrace ())
    in
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.job <- None;
    let worker_error = t.first_error in
    t.first_error <- None;
    Mutex.unlock t.mutex;
    match caller_error, worker_error with
    | Some (exn, bt), _ | None, Some (exn, bt) ->
      Printexc.raise_with_backtrace exn bt
    | None, None -> ()
  end

(* --- memoized pools ---------------------------------------------------- *)

let pools : (int, t) Hashtbl.t = Hashtbl.create 4
let pools_mutex = Mutex.create ()
let exit_hook_installed = ref false

let get workers =
  let workers = max 1 (min workers max_workers) in
  Mutex.lock pools_mutex;
  let t =
    match Hashtbl.find_opt pools workers with
    | Some t -> t
    | None ->
      if not !exit_hook_installed then begin
        exit_hook_installed := true;
        at_exit (fun () ->
            Mutex.lock pools_mutex;
            let all = Hashtbl.fold (fun _ t acc -> t :: acc) pools [] in
            Hashtbl.reset pools;
            Mutex.unlock pools_mutex;
            List.iter shutdown all)
      end;
      let t = create workers in
      Hashtbl.replace pools workers t;
      t
  in
  Mutex.unlock pools_mutex;
  t
