(* Tests for rm_stats: PRNG, descriptive statistics, windows, running
   means, time series, matrices. *)

module Rng = Rm_stats.Rng
module D = Rm_stats.Descriptive
module Window = Rm_stats.Window
module Running_means = Rm_stats.Running_means
module Timeseries = Rm_stats.Timeseries
module Matrix = Rm_stats.Matrix

let check_float = Alcotest.(check (float 1e-9))
let check_close msg expected actual = Alcotest.(check (float 1e-6)) msg expected actual

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_split_independence () =
  let g = Rng.create 7 in
  let child = Rng.split g in
  let x = Rng.int64 child and y = Rng.int64 g in
  Alcotest.(check bool) "split streams differ" true (x <> y)

let test_rng_float_range () =
  let g = Rng.create 3 in
  for _ = 1 to 10_000 do
    let f = Rng.float g in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_float_mean () =
  let g = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float g
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_int_bounds () =
  let g = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.int g 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_gaussian_moments () =
  let g = Rng.create 13 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian g ~mu:3.0 ~sigma:2.0) in
  let s = D.summarize xs in
  Alcotest.(check bool) "mean ~3" true (Float.abs (s.D.mean -. 3.0) < 0.05);
  Alcotest.(check bool) "sd ~2" true (Float.abs (s.D.stddev -. 2.0) < 0.05)

let test_rng_exponential_mean () =
  let g = Rng.create 17 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.exponential g ~rate:0.5) in
  Alcotest.(check bool) "mean ~2" true (Float.abs (D.mean xs -. 2.0) < 0.1)

let test_rng_bernoulli () =
  let g = Rng.create 19 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli g ~p:0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p ~0.3" true (Float.abs (f -. 0.3) < 0.02)

let test_rng_shuffle_permutation () =
  let g = Rng.create 23 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let g = Rng.create 29 in
  let sample = Rng.sample_without_replacement g ~k:10 ~n:20 in
  Alcotest.(check int) "k elements" 10 (List.length sample);
  Alcotest.(check int) "distinct" 10
    (List.length (List.sort_uniq compare sample));
  List.iter
    (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 20))
    sample

let test_rng_pareto_positive () =
  let g = Rng.create 31 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "pareto >= scale" true
      (Rng.pareto g ~shape:1.5 ~scale:2.0 >= 2.0)
  done

(* --- Descriptive --------------------------------------------------------- *)

let test_mean () = check_float "mean" 2.5 (D.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_median_odd () = check_float "median odd" 3.0 (D.median [| 5.0; 1.0; 3.0 |])

let test_median_even () =
  check_float "median even" 2.5 (D.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_variance () =
  (* Population variance: ((-2)^2 + 0 + 2^2) / 3. *)
  check_float "variance" (8.0 /. 3.0) (D.variance [| 1.0; 3.0; 5.0 |])

let test_stddev_constant () = check_float "sd of constant" 0.0 (D.stddev [| 7.0; 7.0 |])

let test_cov () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_close "cv" (2.0 /. 5.0) (D.coefficient_of_variation xs)

let test_percentile_interpolation () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (D.percentile xs ~p:0.0);
  check_float "p100" 40.0 (D.percentile xs ~p:100.0);
  check_float "p50" 25.0 (D.percentile xs ~p:50.0)

let test_percent_gain () =
  check_float "gain" 50.0 (D.percent_gain ~baseline:10.0 ~ours:5.0);
  check_float "negative gain" (-100.0) (D.percent_gain ~baseline:5.0 ~ours:10.0)

let test_empty_inputs_raise () =
  Alcotest.check_raises "mean of empty"
    (Invalid_argument "Descriptive.mean: empty input") (fun () ->
      ignore (D.mean [||]))

let test_summary () =
  let s = D.summarize [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "n" 3 s.D.n;
  check_float "min" 1.0 s.D.min;
  check_float "max" 3.0 s.D.max;
  check_float "mean" 2.0 s.D.mean

(* --- Window -------------------------------------------------------------- *)

let test_window_basic_mean () =
  let w = Window.create ~span:10.0 in
  Window.push w ~time:0.0 ~value:1.0;
  Window.push w ~time:1.0 ~value:3.0;
  Alcotest.(check (option (float 1e-9))) "mean" (Some 2.0) (Window.mean w)

let test_window_eviction () =
  let w = Window.create ~span:10.0 in
  Window.push w ~time:0.0 ~value:100.0;
  Window.push w ~time:20.0 ~value:2.0;
  Alcotest.(check (option (float 1e-9))) "old sample evicted" (Some 2.0)
    (Window.mean w);
  Alcotest.(check int) "one sample left" 1 (Window.length w)

let test_window_boundary_eviction () =
  let w = Window.create ~span:10.0 in
  Window.push w ~time:0.0 ~value:1.0;
  Window.push w ~time:10.0 ~value:3.0;
  (* Sample at exactly t - span is evicted (strictly trailing window). *)
  Alcotest.(check int) "boundary evicted" 1 (Window.length w)

let test_window_empty () =
  let w = Window.create ~span:5.0 in
  Alcotest.(check (option (float 1e-9))) "empty mean" None (Window.mean w);
  check_float "default" 42.0 (Window.mean_default w ~default:42.0)

let test_window_monotonic_time () =
  let w = Window.create ~span:5.0 in
  Window.push w ~time:10.0 ~value:1.0;
  Alcotest.check_raises "time backwards"
    (Invalid_argument "Window.push: time went backwards") (fun () ->
      Window.push w ~time:9.0 ~value:1.0)

let test_window_clear () =
  let w = Window.create ~span:5.0 in
  Window.push w ~time:1.0 ~value:1.0;
  Window.clear w;
  Alcotest.(check int) "cleared" 0 (Window.length w);
  (* After clear, earlier times are acceptable again. *)
  Window.push w ~time:0.0 ~value:2.0;
  Alcotest.(check int) "usable after clear" 1 (Window.length w)

let test_window_latest () =
  let w = Window.create ~span:100.0 in
  Window.push w ~time:1.0 ~value:5.0;
  Window.push w ~time:2.0 ~value:6.0;
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9))))
    "latest" (Some (2.0, 6.0)) (Window.latest w)

(* --- Running_means -------------------------------------------------------- *)

let test_running_means_fresh () =
  let rm = Running_means.create () in
  Alcotest.(check bool) "no view before data" true (Running_means.view rm = None)

let test_running_means_horizons () =
  let rm = Running_means.create () in
  (* 16 minutes of 1.0, then a burst of 10.0 in the last 30 s. *)
  let t = ref 0.0 in
  while !t < 960.0 do
    Running_means.push rm ~time:!t ~value:1.0;
    t := !t +. 10.0
  done;
  Running_means.push rm ~time:965.0 ~value:10.0;
  Running_means.push rm ~time:970.0 ~value:10.0;
  match Running_means.view rm with
  | None -> Alcotest.fail "expected view"
  | Some v ->
    Alcotest.(check bool) "m1 reacts fastest" true
      (v.Running_means.m1 > v.Running_means.m5
      && v.Running_means.m5 > v.Running_means.m15);
    check_float "instant" 10.0 v.Running_means.instant

let test_running_means_blend () =
  let v = { Running_means.instant = 0.0; m1 = 1.0; m5 = 2.0; m15 = 3.0 } in
  check_float "blend equal" 2.0 (Running_means.blend v ~w1:1.0 ~w5:1.0 ~w15:1.0);
  check_float "blend m1 only" 1.0 (Running_means.blend v ~w1:1.0 ~w5:0.0 ~w15:0.0)

let test_running_means_view_default () =
  let rm = Running_means.create () in
  let v = Running_means.view_default rm ~default:5.0 in
  check_float "default view" 5.0 v.Running_means.m15

(* --- Timeseries ------------------------------------------------------------ *)

let test_timeseries_append_get () =
  let ts = Timeseries.create ~name:"x" () in
  Timeseries.append ts ~time:1.0 ~value:10.0;
  Timeseries.append ts ~time:2.0 ~value:20.0;
  Alcotest.(check int) "length" 2 (Timeseries.length ts);
  let t, v = Timeseries.get ts 1 in
  check_float "time" 2.0 t;
  check_float "value" 20.0 v

let test_timeseries_monotonic () =
  let ts = Timeseries.create () in
  Timeseries.append ts ~time:5.0 ~value:0.0;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Timeseries.append: time went backwards") (fun () ->
      Timeseries.append ts ~time:4.0 ~value:0.0)

let test_timeseries_growth () =
  let ts = Timeseries.create () in
  for i = 0 to 999 do
    Timeseries.append ts ~time:(float_of_int i) ~value:(float_of_int (i * 2))
  done;
  Alcotest.(check int) "1000 points" 1000 (Timeseries.length ts);
  let _, v = Timeseries.get ts 999 in
  check_float "last value" 1998.0 v

let test_timeseries_resample () =
  let ts = Timeseries.create () in
  List.iter
    (fun (t, v) -> Timeseries.append ts ~time:t ~value:v)
    [ (0.0, 1.0); (1.0, 3.0); (10.0, 5.0); (11.0, 7.0) ];
  let r = Timeseries.resample ts ~period:10.0 in
  Alcotest.(check int) "two buckets" 2 (Timeseries.length r);
  let _, v0 = Timeseries.get r 0 in
  let _, v1 = Timeseries.get r 1 in
  check_float "bucket 0 mean" 2.0 v0;
  check_float "bucket 1 mean" 6.0 v1

let test_timeseries_average () =
  let mk vs =
    let ts = Timeseries.create () in
    List.iteri (fun i v -> Timeseries.append ts ~time:(float_of_int i) ~value:v) vs;
    ts
  in
  let avg = Timeseries.average [ mk [ 1.0; 2.0 ]; mk [ 3.0; 4.0 ] ] in
  let _, v0 = Timeseries.get avg 0 in
  let _, v1 = Timeseries.get avg 1 in
  check_float "avg0" 2.0 v0;
  check_float "avg1" 3.0 v1

let test_timeseries_average_mismatch () =
  let mk vs =
    let ts = Timeseries.create () in
    List.iteri (fun i v -> Timeseries.append ts ~time:(float_of_int i) ~value:v) vs;
    ts
  in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Timeseries.average: length mismatch") (fun () ->
      ignore (Timeseries.average [ mk [ 1.0 ]; mk [ 1.0; 2.0 ] ]))

(* --- Matrix ----------------------------------------------------------------- *)

let test_matrix_get_set () =
  let m = Matrix.create ~rows:2 ~cols:3 ~init:0.0 in
  Matrix.set m 1 2 5.0;
  check_float "set/get" 5.0 (Matrix.get m 1 2);
  check_float "untouched" 0.0 (Matrix.get m 0 0)

let test_matrix_bounds () =
  let m = Matrix.square 2 ~init:0.0 in
  Alcotest.check_raises "oob" (Invalid_argument "Matrix: index out of bounds")
    (fun () -> ignore (Matrix.get m 2 0))

let test_matrix_rows () =
  let m = Matrix.create ~rows:2 ~cols:3 ~init:0.0 in
  Matrix.write_row m 1 [| 1.0; 2.0; 3.0; 99.0 |];
  check_float "write_row lands in its row" 2.0 (Matrix.get m 1 1);
  check_float "other rows untouched" 0.0 (Matrix.get m 0 2);
  let dst = Array.make 3 (-1.0) in
  Matrix.read_row m 1 dst;
  Alcotest.(check (array (float 0.0))) "read_row" [| 1.0; 2.0; 3.0 |] dst;
  Alcotest.check_raises "row out of bounds"
    (Invalid_argument "Matrix.read_row: row out of bounds or buffer too short")
    (fun () -> Matrix.read_row m 2 dst);
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Matrix.write_row: row out of bounds or buffer too short")
    (fun () -> Matrix.write_row m 0 [| 1.0 |])

let test_matrix_off_diagonal_mean () =
  let m = Matrix.square 2 ~init:0.0 in
  Matrix.set m 0 1 4.0;
  Matrix.set m 1 0 6.0;
  Matrix.set m 0 0 100.0;
  check_float "off-diag mean ignores diagonal" 5.0 (Matrix.off_diagonal_mean m)

let test_matrix_symmetrize () =
  let m = Matrix.square 2 ~init:0.0 in
  Matrix.set m 0 1 2.0;
  Matrix.set m 1 0 4.0;
  Matrix.symmetrize m;
  check_float "upper" 3.0 (Matrix.get m 0 1);
  check_float "lower" 3.0 (Matrix.get m 1 0)

let test_matrix_submatrix () =
  let m = Matrix.square 3 ~init:0.0 in
  Matrix.iteri m ~f:(fun ~row ~col _ ->
      Matrix.set m row col (float_of_int ((row * 3) + col)));
  let s = Matrix.submatrix m ~indices:[ 0; 2 ] in
  check_float "s(0,1) = m(0,2)" 2.0 (Matrix.get s 0 1);
  check_float "s(1,0) = m(2,0)" 6.0 (Matrix.get s 1 0)

let test_matrix_scale_add () =
  let a = Matrix.square 2 ~init:1.0 in
  let b = Matrix.square 2 ~init:2.0 in
  let c = Matrix.add_pointwise (Matrix.scale a 3.0) b in
  check_float "3*1+2" 5.0 (Matrix.get c 1 1)

(* --- qcheck properties -------------------------------------------------- *)

let qcheck = QCheck_alcotest.to_alcotest

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile within min..max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
              (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let v = D.percentile a ~p in
      v >= D.min a -. 1e-9 && v <= D.max a +. 1e-9)

let prop_mean_within_bounds =
  QCheck.Test.make ~name:"mean within min..max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let a = Array.of_list xs in
      let m = D.mean a in
      m >= D.min a -. 1e-9 && m <= D.max a +. 1e-9)

let prop_window_mean_of_retained =
  QCheck.Test.make ~name:"window mean = mean of retained samples" ~count:100
    QCheck.(list_of_size Gen.(1 -- 40)
              (pair (float_bound_inclusive 10.0) (float_bound_inclusive 100.0)))
    (fun steps ->
      let w = Window.create ~span:15.0 in
      let t = ref 0.0 in
      let samples = ref [] in
      List.iter
        (fun (dt, v) ->
          t := !t +. dt;
          Window.push w ~time:!t ~value:v;
          samples := (!t, v) :: !samples)
        steps;
      let retained =
        List.filter (fun (time, _) -> time > !t -. 15.0) !samples
      in
      match Window.mean w with
      | None -> retained = []
      | Some m ->
        let expect =
          List.fold_left (fun acc (_, v) -> acc +. v) 0.0 retained
          /. float_of_int (List.length retained)
        in
        Float.abs (m -. expect) < 1e-6)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:100
    QCheck.(pair small_int (list_of_size Gen.(0 -- 30) small_int))
    (fun (seed, xs) ->
      let g = Rng.create seed in
      let a = Array.of_list xs in
      Rng.shuffle g a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

(* --- bit-identity and allocation of the monitor substrate ---------------- *)

(* The queue-based window the ring buffer replaced, kept as the reference
   for bit-identity: same additions and evictions, same order. *)
module Queue_window = struct
  type t = {
    span : float;
    samples : (float * float) Queue.t;
    mutable sum : float;
    mutable last_time : float;
  }

  let create ~span =
    { span; samples = Queue.create (); sum = 0.0; last_time = neg_infinity }

  let push t ~time ~value =
    if time < t.last_time then invalid_arg "Window.push: time went backwards";
    t.last_time <- time;
    Queue.push (time, value) t.samples;
    t.sum <- t.sum +. value;
    let cutoff = time -. t.span in
    let continue = ref true in
    while !continue && not (Queue.is_empty t.samples) do
      let time, value = Queue.peek t.samples in
      if time <= cutoff then begin
        ignore (Queue.pop t.samples);
        t.sum <- t.sum -. value
      end
      else continue := false
    done

  let mean t =
    let n = Queue.length t.samples in
    if n = 0 then None else Some (t.sum /. float_of_int n)

  let latest t = Queue.fold (fun _ x -> Some x) None t.samples

  let clear t =
    Queue.clear t.samples;
    t.sum <- 0.0;
    t.last_time <- neg_infinity
end

(* Steps are (gap, value) pushes or clears; gaps of 0 give ties, and a
   small span with up to 200 samples forces the ring to wrap and grow. *)
let prop_window_matches_queue =
  let step =
    QCheck.Gen.(
      frequency
        [
          (1, return `Clear);
          ( 30,
            map2
              (fun gap v -> `Push (gap, v))
              (oneof [ return 0.0; float_bound_inclusive 3.0 ])
              (float_range (-1e3) 1e3) );
        ])
  in
  QCheck.Test.make ~name:"ring window = queue window, bit for bit" ~count:300
    (QCheck.make
       QCheck.Gen.(pair (float_range 0.5 20.0) (list_size (0 -- 200) step)))
    (fun (span, steps) ->
      let w = Window.create ~span and q = Queue_window.create ~span in
      let t = ref 0.0 in
      let same () =
        let bits = Option.map Int64.bits_of_float in
        Window.length w = Queue.length q.Queue_window.samples
        && bits (Window.mean w) = bits (Queue_window.mean q)
        && Window.latest w = Queue_window.latest q
      in
      List.for_all
        (fun s ->
          (match s with
          | `Clear ->
            Window.clear w;
            Queue_window.clear q
          | `Push (gap, value) ->
            t := !t +. gap;
            Window.push w ~time:!t ~value;
            Queue_window.push q ~time:!t ~value);
          same ())
        steps)

(* First draws of two seeds, recorded from the boxed-[int64] generator
   the unboxed state replaced: the stream must not move. *)
let test_rng_golden_stream () =
  List.iter
    (fun (seed, raw, floats, i, b, child, after) ->
      let g = Rng.create seed in
      let r1 = Rng.int64 g in
      let r2 = Rng.int64 g in
      let f = Rng.float g in
      let ga = Rng.gaussian g ~mu:1.5 ~sigma:0.3 in
      let u = Rng.uniform g ~lo:(-3.0) ~hi:3.0 in
      let e = Rng.exponential g ~rate:0.09 in
      let p = Rng.pareto g ~shape:1.3 ~scale:6.0 in
      let n = Rng.int g 1000 in
      let bo = Rng.bool g in
      let c = Rng.split g in
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check (list int64)) (name "int64") raw [ r1; r2 ];
      Alcotest.(check (list int64)) (name "float draws, bit for bit")
        (List.map Int64.bits_of_float floats)
        (List.map Int64.bits_of_float [ f; ga; u; e; p ]);
      Alcotest.(check int) (name "int") i n;
      Alcotest.(check bool) (name "bool") b bo;
      Alcotest.(check int64) (name "split child") child (Rng.int64 c);
      Alcotest.(check int64) (name "parent after split") after (Rng.int64 g))
    [
      ( 1,
        [ -4616330145664149646L; 6869446166584666695L ],
        [ 0x1.c0cd7f0f6bcf6p-2; 0x1.86fbca157d534p+0; 0x1.2632f767ef898p-1;
          0x1.17626518854dep+3; 0x1.5e2c38a4b95a5p+4 ],
        669, false, 6324061867860415516L, -8603295654659979639L );
      ( 7920,
        [ -6422475049350426805L; -4489090673945943697L ],
        [ 0x1.f95395e0648b1p-1; 0x1.8aa51084be31dp+0; 0x1.5680006490e18p-1;
          0x1.3e2ca68beb978p+3; 0x1.924d790fc3c9bp+3 ],
        467, false, 790496381780467405L, -1096208563863803192L );
    ]

(* Minor words per call over 10k steady-state calls. Arguments come
   pre-boxed from an array of tuples, so only the callee's own
   allocation is counted. A float returned across a module boundary is
   boxed (2 words): without flambda, and with dune's default -opaque
   build, nothing is inlined across modules. That box is the only
   allocation [Rng.float] and [Rng.gaussian] may make. *)
let minor_words_per_call f =
  let calls = 10_000 in
  f 0;
  let before = Gc.minor_words () in
  for i = 1 to calls do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let boxed_float_words = 2.0

let test_substrate_allocation () =
  let n = 10_000 in
  let samples =
    Array.init (n + 1) (fun i -> (6.0 *. float_of_int i, float_of_int (i mod 7)))
  in
  let w = Window.create ~span:900.0 in
  let rm = Running_means.create () in
  (* Fill past the 15-minute horizon so the ring has reached its size. *)
  Array.iter (fun (time, value) -> Window.push w ~time ~value) samples;
  Array.iter (fun (time, value) -> Running_means.push rm ~time ~value) samples;
  let later =
    Array.map (fun (time, v) -> (time +. (6.0 *. float_of_int (n + 1)), v)) samples
  in
  let check name expected got =
    Alcotest.(check (float 1e-3)) (name ^ ": minor words per call") expected got
  in
  check "Window.push" 0.0
    (minor_words_per_call (fun i ->
         let time, value = later.(i) in
         Window.push w ~time ~value));
  check "Running_means.push" 0.0
    (minor_words_per_call (fun i ->
         let time, value = later.(i) in
         Running_means.push rm ~time ~value));
  let g = Rng.create 5 in
  let sink = ref 0.0 in
  check "Rng.float" boxed_float_words
    (minor_words_per_call (fun _ -> sink := Rng.float g));
  check "Rng.gaussian" boxed_float_words
    (minor_words_per_call (fun _ -> sink := Rng.gaussian g ~mu:0.0 ~sigma:1.0));
  ignore !sink

let suites =
  [
    ( "stats.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "split independence" `Quick test_rng_split_independence;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "float mean" `Quick test_rng_float_mean;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "sample without replacement" `Quick
          test_rng_sample_without_replacement;
        Alcotest.test_case "pareto positive" `Quick test_rng_pareto_positive;
        Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
        qcheck prop_shuffle_preserves_multiset;
      ] );
    ( "stats.descriptive",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "median odd" `Quick test_median_odd;
        Alcotest.test_case "median even" `Quick test_median_even;
        Alcotest.test_case "variance" `Quick test_variance;
        Alcotest.test_case "stddev constant" `Quick test_stddev_constant;
        Alcotest.test_case "coefficient of variation" `Quick test_cov;
        Alcotest.test_case "percentile interpolation" `Quick
          test_percentile_interpolation;
        Alcotest.test_case "percent gain" `Quick test_percent_gain;
        Alcotest.test_case "empty raises" `Quick test_empty_inputs_raise;
        Alcotest.test_case "summary" `Quick test_summary;
        qcheck prop_percentile_bounded;
        qcheck prop_mean_within_bounds;
      ] );
    ( "stats.window",
      [
        Alcotest.test_case "basic mean" `Quick test_window_basic_mean;
        Alcotest.test_case "eviction" `Quick test_window_eviction;
        Alcotest.test_case "boundary eviction" `Quick test_window_boundary_eviction;
        Alcotest.test_case "empty" `Quick test_window_empty;
        Alcotest.test_case "monotonic time" `Quick test_window_monotonic_time;
        Alcotest.test_case "clear" `Quick test_window_clear;
        Alcotest.test_case "latest" `Quick test_window_latest;
        qcheck prop_window_mean_of_retained;
        qcheck prop_window_matches_queue;
      ] );
    ( "stats.allocation",
      [ Alcotest.test_case "steady-state substrate calls" `Quick test_substrate_allocation ] );
    ( "stats.running_means",
      [
        Alcotest.test_case "fresh" `Quick test_running_means_fresh;
        Alcotest.test_case "horizons" `Quick test_running_means_horizons;
        Alcotest.test_case "blend" `Quick test_running_means_blend;
        Alcotest.test_case "view default" `Quick test_running_means_view_default;
      ] );
    ( "stats.timeseries",
      [
        Alcotest.test_case "append/get" `Quick test_timeseries_append_get;
        Alcotest.test_case "monotonic" `Quick test_timeseries_monotonic;
        Alcotest.test_case "growth" `Quick test_timeseries_growth;
        Alcotest.test_case "resample" `Quick test_timeseries_resample;
        Alcotest.test_case "average" `Quick test_timeseries_average;
        Alcotest.test_case "average mismatch" `Quick test_timeseries_average_mismatch;
      ] );
    ( "stats.matrix",
      [
        Alcotest.test_case "get/set" `Quick test_matrix_get_set;
        Alcotest.test_case "bounds" `Quick test_matrix_bounds;
        Alcotest.test_case "read/write rows" `Quick test_matrix_rows;
        Alcotest.test_case "off-diagonal mean" `Quick test_matrix_off_diagonal_mean;
        Alcotest.test_case "symmetrize" `Quick test_matrix_symmetrize;
        Alcotest.test_case "submatrix" `Quick test_matrix_submatrix;
        Alcotest.test_case "scale/add" `Quick test_matrix_scale_add;
      ] );
  ]
