module Snapshot = Rm_monitor.Snapshot
module Matrix = Rm_stats.Matrix

type t = {
  usable : int list;
  ids : int array;  (** dense index -> node id *)
  index : (int, int) Hashtbl.t;  (** node id -> dense index *)
  weights : Weights.t;
  lat : Matrix.t;  (** raw latencies over dense indices *)
  bw_comp : Matrix.t;  (** raw bandwidth complements over dense indices *)
  row_lat : float array;  (** per-row off-diagonal sums of [lat] *)
  row_bw : float array;  (** per-row off-diagonal sums of [bw_comp] *)
  mutable lat_sum : float;
  mutable bw_sum : float;
  scale : float;
  mutable nl : Matrix.t option;  (** materialized NL, built on demand *)
  mutable touched_rows : int;
      (** rows patched in place since the last exact renormalization *)
  mutable block_cache : (int array * int * float array) option;
}

let[@inline] bw_complement_of ~peak ~avail =
  (* Available bandwidth can exceed nominal peak under measurement
     noise; the complement is clamped at 0 (no negative load). *)
  if Float.is_finite peak then Float.max 0.0 (peak -. Float.min peak avail)
  else 0.0

(* Row sums are the unit of incremental maintenance: [apply_delta]
   recomputes them exactly for patched rows and adjusts the rest, and
   the normalization totals are always a fold over the row-sum arrays.
   Both the full build and the patch path go through these two
   functions, which is what makes them bit-identical after an exact
   renormalization. *)
let recompute_row_sums t =
  let k = Array.length t.ids in
  let lat = Array.make (Matrix.cols t.lat) 0.0 in
  let bw = Array.make (Matrix.cols t.bw_comp) 0.0 in
  for i = 0 to k - 1 do
    Matrix.read_row t.lat i lat;
    Matrix.read_row t.bw_comp i bw;
    let sl = ref 0.0 and sb = ref 0.0 in
    for j = 0 to k - 1 do
      if j <> i then begin
        sl := !sl +. lat.(j);
        sb := !sb +. bw.(j)
      end
    done;
    t.row_lat.(i) <- !sl;
    t.row_bw.(i) <- !sb
  done

let refresh_totals t =
  t.lat_sum <- Array.fold_left ( +. ) 0.0 t.row_lat;
  t.bw_sum <- Array.fold_left ( +. ) 0.0 t.row_bw

let of_snapshot snapshot ~weights =
  Weights.validate weights;
  let usable = Snapshot.usable snapshot in
  let k = List.length usable in
  let index = Hashtbl.create (max k 1) in
  List.iteri (fun i node -> Hashtbl.replace index node i) usable;
  let ids = Array.of_list usable in
  let lat = Matrix.square (max k 1) ~init:0.0 in
  let bw_comp = Matrix.square (max k 1) ~init:0.0 in
  (* Whole rows go through buffers: a [Matrix.get]/[set] per pair boxes
     a float each way, ~10 words per pair of minor-heap churn. *)
  let row m = Array.make (Matrix.cols m) 0.0 in
  let s_lat = row snapshot.Snapshot.lat_us
  and s_peak = row snapshot.Snapshot.peak_bw_mb_s
  and s_avail = row snapshot.Snapshot.bw_mb_s in
  let r_lat = row lat and r_bw = row bw_comp in
  for i = 0 to k - 1 do
    let u = ids.(i) in
    Matrix.read_row snapshot.Snapshot.lat_us u s_lat;
    Matrix.read_row snapshot.Snapshot.peak_bw_mb_s u s_peak;
    Matrix.read_row snapshot.Snapshot.bw_mb_s u s_avail;
    for j = 0 to k - 1 do
      if i = j then begin
        r_lat.(j) <- 0.0;
        r_bw.(j) <- 0.0
      end
      else begin
        let v = ids.(j) in
        r_lat.(j) <- s_lat.(v);
        r_bw.(j) <- bw_complement_of ~peak:s_peak.(v) ~avail:s_avail.(v)
      end
    done;
    Matrix.write_row lat i r_lat;
    Matrix.write_row bw_comp i r_bw
  done;
  (* Scale commensurability: sum-normalizing CL over V nodes makes a CL
     entry ~1/V, while sum-normalizing NL over V(V-1) pairs makes an NL
     entry ~1/V². Algorithm 1's addition cost α·CL(u) + β·NL(v,u) mixes
     one entry of each, so without rescaling the network term would be
     V times too weak and the allocator degenerates to load-aware —
     contradicting the paper's observed network-dominant selection at
     β = 0.7. We rescale NL by V so both terms live on the same 1/V
     scale. (Algorithm 2 re-normalizes per candidate set, so this factor
     is harmless there.) *)
  let scale = float_of_int (max 1 k) in
  let t =
    { usable; ids; index; weights; lat; bw_comp;
      row_lat = Array.make (max k 1) 0.0; row_bw = Array.make (max k 1) 0.0;
      lat_sum = 0.0; bw_sum = 0.0; scale; nl = None; touched_rows = 0;
      block_cache = None }
  in
  recompute_row_sums t;
  refresh_totals t;
  t

let dense t node =
  match Hashtbl.find_opt t.index node with
  | Some i -> i
  | None -> invalid_arg "Network_load: node not usable"

let dense_index t ~node = dense t node

(* The NL entry in factored form. [nl_matrix] materializes exactly this
   expression over row buffers, and [raw_get] below repeats it verbatim
   over captured fields, so all three read paths are bit-equal. *)
let entry t i j =
  if i = j then 0.0
  else begin
    let lt = if t.lat_sum > 0.0 then Matrix.get t.lat i j /. t.lat_sum else 0.0 in
    let bw =
      if t.bw_sum > 0.0 then Matrix.get t.bw_comp i j /. t.bw_sum else 0.0
    in
    t.scale
    *. ((t.weights.Weights.w_lt *. lt) +. (t.weights.Weights.w_bw *. bw))
  end

let nl_matrix t =
  match t.nl with
  | Some m -> m
  | None ->
    (* [entry]'s expression over row buffers, so that materializing
       V² entries boxes no float. *)
    let k = Array.length t.ids in
    let m = Matrix.square (max k 1) ~init:0.0 in
    let lat = Array.make (Matrix.cols t.lat) 0.0 in
    let bw_comp = Array.make (Matrix.cols t.bw_comp) 0.0 in
    let nl = Array.make (Matrix.cols m) 0.0 in
    let w_lt = t.weights.Weights.w_lt and w_bw = t.weights.Weights.w_bw in
    for i = 0 to k - 1 do
      Matrix.read_row t.lat i lat;
      Matrix.read_row t.bw_comp i bw_comp;
      for j = 0 to k - 1 do
        if i = j then nl.(j) <- 0.0
        else begin
          let lt = if t.lat_sum > 0.0 then lat.(j) /. t.lat_sum else 0.0 in
          let bw = if t.bw_sum > 0.0 then bw_comp.(j) /. t.bw_sum else 0.0 in
          nl.(j) <- t.scale *. ((w_lt *. lt) +. (w_bw *. bw))
        end
      done;
      Matrix.write_row m i nl
    done;
    t.nl <- Some m;
    m

let nl_cached t = t.nl

type raw = {
  r_lat : Matrix.t;
  r_bw_comp : Matrix.t;
  r_lat_sum : float;
  r_bw_sum : float;
  r_scale : float;
  r_w_lt : float;
  r_w_bw : float;
}

let raw t =
  { r_lat = t.lat; r_bw_comp = t.bw_comp; r_lat_sum = t.lat_sum;
    r_bw_sum = t.bw_sum; r_scale = t.scale;
    r_w_lt = t.weights.Weights.w_lt; r_w_bw = t.weights.Weights.w_bw }

let raw_get r i j =
  if i = j then 0.0
  else begin
    let lt =
      if r.r_lat_sum > 0.0 then Matrix.get r.r_lat i j /. r.r_lat_sum else 0.0
    in
    let bw =
      if r.r_bw_sum > 0.0 then Matrix.get r.r_bw_comp i j /. r.r_bw_sum
      else 0.0
    in
    r.r_scale *. ((r.r_w_lt *. lt) +. (r.r_w_bw *. bw))
  end

let weights t = t.weights

let dense_degrees t =
  let k = Array.length t.ids in
  Array.init k (fun i ->
      if k <= 1 then 0.0
      else begin
        let lt = if t.lat_sum > 0.0 then t.row_lat.(i) /. t.lat_sum else 0.0 in
        let bw = if t.bw_sum > 0.0 then t.row_bw.(i) /. t.bw_sum else 0.0 in
        t.scale
        *. ((t.weights.Weights.w_lt *. lt) +. (t.weights.Weights.w_bw *. bw))
        /. float_of_int (k - 1)
      end)

let get t ~u ~v = if u = v then 0.0 else entry t (dense t u) (dense t v)

let latency_us t ~u ~v =
  if u = v then 0.0 else Matrix.get t.lat (dense t u) (dense t v)

let bw_complement_mb_s t ~u ~v =
  if u = v then 0.0 else Matrix.get t.bw_comp (dense t u) (dense t v)

let fold_pairs t ~nodes ~f ~init =
  let rec outer acc = function
    | [] -> acc
    | u :: rest ->
      let acc = List.fold_left (fun acc v -> f acc u v) acc rest in
      outer acc rest
  in
  ignore t;
  outer init nodes

let total_edges t ~nodes =
  fold_pairs t ~nodes ~init:0.0 ~f:(fun acc u v -> acc +. get t ~u ~v)

let mean_edges t ~nodes =
  let k = List.length nodes in
  if k < 2 then 0.0
  else total_edges t ~nodes /. float_of_int (k * (k - 1) / 2)

let usable t = t.usable

let block_mean_table t ~block_of_dense ~nblocks =
  let cached =
    match t.block_cache with
    | Some (b, n, means) when n = nblocks && b = block_of_dense -> Some means
    | _ -> None
  in
  match cached with
  | Some means -> means
  | None ->
    let k = Array.length t.ids in
    if Array.length block_of_dense < k then
      invalid_arg "Network_load.block_mean_table: block map too small";
    let g = nblocks in
    let sums = Array.make (g * g) 0.0 in
    let counts = Array.make (g * g) 0 in
    for i = 0 to k - 1 do
      let ba = block_of_dense.(i) in
      if ba >= 0 then
        for j = i + 1 to k - 1 do
          let bb = block_of_dense.(j) in
          if bb >= 0 then begin
            let cell = (min ba bb * g) + max ba bb in
            sums.(cell) <- sums.(cell) +. entry t i j;
            counts.(cell) <- counts.(cell) + 1
          end
        done
    done;
    let means =
      Array.init (g * g) (fun c ->
          if counts.(c) = 0 then 0.0 else sums.(c) /. float_of_int counts.(c))
    in
    t.block_cache <- Some (Array.copy block_of_dense, nblocks, means);
    means

let apply_delta t ~next ~touched_dense ~renorm_threshold =
  let k = Array.length t.ids in
  let touched = Array.make (max k 1) false in
  let n_touched = ref 0 in
  List.iter
    (fun i ->
      if i < 0 || i >= k then
        invalid_arg "Network_load.apply_delta: dense index out of range";
      if not touched.(i) then begin
        touched.(i) <- true;
        incr n_touched
      end)
    touched_dense;
  if !n_touched = 0 then false
  else begin
    let tl = Array.make !n_touched 0 in
    let p = ref 0 in
    for i = 0 to k - 1 do
      if touched.(i) then begin
        tl.(!p) <- i;
        incr p
      end
    done;
    (* Untouched rows change only in the touched columns: read each old
       value before overwriting it and fold the difference into the row
       sum. This is the only place incremental float drift can enter;
       the renormalization below bounds it. *)
    for j = 0 to k - 1 do
      if not touched.(j) then begin
        let dl = ref 0.0 and db = ref 0.0 in
        Array.iter
          (fun i ->
            let u = t.ids.(j) and v = t.ids.(i) in
            let l = Matrix.get next.Snapshot.lat_us u v in
            let peak = Matrix.get next.Snapshot.peak_bw_mb_s u v in
            let avail = Matrix.get next.Snapshot.bw_mb_s u v in
            let b = bw_complement_of ~peak ~avail in
            dl := !dl +. (l -. Matrix.get t.lat j i);
            db := !db +. (b -. Matrix.get t.bw_comp j i);
            Matrix.set t.lat j i l;
            Matrix.set t.bw_comp j i b)
          tl;
        t.row_lat.(j) <- t.row_lat.(j) +. !dl;
        t.row_bw.(j) <- t.row_bw.(j) +. !db
      end
    done;
    (* Touched rows are rewritten wholesale and their sums recomputed
       exactly, in the same order [recompute_row_sums] uses. *)
    Array.iter
      (fun i ->
        let u = t.ids.(i) in
        let sl = ref 0.0 and sb = ref 0.0 in
        for j = 0 to k - 1 do
          if j <> i then begin
            let v = t.ids.(j) in
            let l = Matrix.get next.Snapshot.lat_us u v in
            let peak = Matrix.get next.Snapshot.peak_bw_mb_s u v in
            let avail = Matrix.get next.Snapshot.bw_mb_s u v in
            let b = bw_complement_of ~peak ~avail in
            Matrix.set t.lat i j l;
            Matrix.set t.bw_comp i j b;
            sl := !sl +. l;
            sb := !sb +. b
          end
        done;
        t.row_lat.(i) <- sl.contents;
        t.row_bw.(i) <- sb.contents)
      tl;
    t.touched_rows <- t.touched_rows + !n_touched;
    let renormed =
      float_of_int t.touched_rows > renorm_threshold *. float_of_int (max 1 k)
    in
    if renormed then begin
      recompute_row_sums t;
      t.touched_rows <- 0
    end;
    refresh_totals t;
    t.nl <- None;
    t.block_cache <- None;
    renormed
  end

(* A changed node reading shows up as a whole changed row AND column
   (monitor updates are symmetric), so "every row that differs
   anywhere" would be the full vertex set — useless as a touched set,
   since Nl_delta invalidates past V/2 rows. What apply_delta actually
   needs is a set of rows covering every differing entry (touched rows
   are rewritten, their symmetric columns patched into the rest):
   a vertex cover of the diff graph. Greedy max-degree is exact for
   the union-of-stars structure real deltas have and recovers the
   changed nodes themselves. O(V² + |cover|·V). *)
let changed_rows t ~next =
  let k = Array.length t.ids in
  let diff i j =
    let u = t.ids.(i) and v = t.ids.(j) in
    let l = Matrix.get next.Snapshot.lat_us u v in
    let peak = Matrix.get next.Snapshot.peak_bw_mb_s u v in
    let avail = Matrix.get next.Snapshot.bw_mb_s u v in
    let b = bw_complement_of ~peak ~avail in
    (not (Float.equal (Matrix.get t.lat i j) l))
    || not (Float.equal (Matrix.get t.bw_comp i j) b)
  in
  (* d.(i) = differing entries of row i not yet covered by a column in
     the cover; maintained with one O(V) column re-diff per pick. *)
  let d = Array.make k 0 in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if j <> i && diff i j then d.(i) <- d.(i) + 1
    done
  done;
  let in_cover = Array.make k false in
  let out = ref [] in
  let rec loop () =
    let best = ref (-1) in
    for i = 0 to k - 1 do
      if (not in_cover.(i)) && d.(i) > 0 && (!best < 0 || d.(i) > d.(!best))
      then best := i
    done;
    if !best >= 0 then begin
      let x = !best in
      in_cover.(x) <- true;
      out := x :: !out;
      for i = 0 to k - 1 do
        if (not in_cover.(i)) && d.(i) > 0 && diff i x then d.(i) <- d.(i) - 1
      done;
      d.(x) <- 0;
      loop ()
    end
  in
  loop ();
  List.sort compare !out
