type t = {
  w1 : Window.t;
  w5 : Window.t;
  w15 : Window.t;
  last : float array;  (* [| latest value |], unboxed *)
  mutable pushed : bool;
}

type view = { instant : float; m1 : float; m5 : float; m15 : float }

let create_spans ~m1 ~m5 ~m15 =
  { w1 = Window.create ~span:m1;
    w5 = Window.create ~span:m5;
    w15 = Window.create ~span:m15;
    last = [| 0.0 |];
    pushed = false }

let create () = create_spans ~m1:60.0 ~m5:300.0 ~m15:900.0

let push t ~time ~value =
  Window.push t.w1 ~time ~value;
  Window.push t.w5 ~time ~value;
  Window.push t.w15 ~time ~value;
  t.last.(0) <- value;
  t.pushed <- true

let view t =
  if not t.pushed then None
  else begin
    let instant = t.last.(0) in
    Some
      {
        instant;
        m1 = Window.mean_default t.w1 ~default:instant;
        m5 = Window.mean_default t.w5 ~default:instant;
        m15 = Window.mean_default t.w15 ~default:instant;
      }
  end

let view_default t ~default =
  match view t with
  | Some v -> v
  | None -> { instant = default; m1 = default; m5 = default; m15 = default }

let blend v ~w1 ~w5 ~w15 =
  let total = w1 +. w5 +. w15 in
  if total <= 0.0 then invalid_arg "Running_means.blend: non-positive weights";
  ((w1 *. v.m1) +. (w5 *. v.m5) +. (w15 *. v.m15)) /. total
