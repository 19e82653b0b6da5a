type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols ~init =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: non-positive dims";
  { rows; cols; data = Array.make (rows * cols) init }

let square n ~init = create ~rows:n ~cols:n ~init
let rows t = t.rows
let cols t = t.cols

let index t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg "Matrix: index out of bounds";
  (i * t.cols) + j

let get t i j = t.data.(index t i j)
let set t i j v = t.data.(index t i j) <- v
let update t i j ~f = set t i j (f (get t i j))
let fill t v = Array.fill t.data 0 (Array.length t.data) v
let copy t = { t with data = Array.copy t.data }

let check_row name t i buf =
  if i < 0 || i >= t.rows || Array.length buf < t.cols then
    invalid_arg ("Matrix." ^ name ^ ": row out of bounds or buffer too short")

let read_row t i dst =
  check_row "read_row" t i dst;
  Array.blit t.data (i * t.cols) dst 0 t.cols

let write_row t i src =
  check_row "write_row" t i src;
  Array.blit src 0 t.data (i * t.cols) t.cols
let map t ~f = { t with data = Array.map f t.data }

let iteri t ~f =
  for i = 0 to t.rows - 1 do
    for j = 0 to t.cols - 1 do
      f ~row:i ~col:j (get t i j)
    done
  done

let off_diagonal_mean t =
  if t.rows < 2 || t.cols < 2 then
    invalid_arg "Matrix.off_diagonal_mean: matrix too small";
  let acc = ref 0.0 and n = ref 0 in
  iteri t ~f:(fun ~row ~col v ->
      if row <> col then begin
        acc := !acc +. v;
        incr n
      end);
  !acc /. float_of_int !n

let symmetrize t =
  if t.rows <> t.cols then invalid_arg "Matrix.symmetrize: not square";
  for i = 0 to t.rows - 1 do
    for j = i + 1 to t.cols - 1 do
      let m = (get t i j +. get t j i) /. 2.0 in
      set t i j m;
      set t j i m
    done
  done

let max_value t = Array.fold_left Float.max t.data.(0) t.data
let min_value t = Array.fold_left Float.min t.data.(0) t.data

let submatrix t ~indices =
  let idx = Array.of_list indices in
  let n = Array.length idx in
  if n = 0 then invalid_arg "Matrix.submatrix: empty index list";
  let out = create ~rows:n ~cols:n ~init:0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      set out i j (get t idx.(i) idx.(j))
    done
  done;
  out

let add_pointwise a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix.add_pointwise: shape mismatch";
  { a with data = Array.mapi (fun i x -> x +. b.data.(i)) a.data }

let scale t k = map t ~f:(fun x -> x *. k)
