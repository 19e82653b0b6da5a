(* In-memory span recorder. Each span names the layer it times as the
   prefix of its name ("rm_core.decide"), records its parent span (0 for
   a root) and the request or decision it belongs to. Spans stay in
   memory until the run ends; self time and coverage are derived from
   them afterwards, so recording costs two clock reads and one cons. *)

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  on : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable open_ids : int list;
}

let create ~on = { on; spans = []; next_id = 1; open_ids = [] }
let enabled t = t.on
let spans t = List.rev t.spans

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let current t = match t.open_ids with p :: _ -> p | [] -> 0

(* A span whose bounds the caller measured itself, e.g. a request that
   was sent and answered at different points of an event loop. *)
let record t ?(req = 0) name ~start_ns ~stop_ns =
  if t.on then
    t.spans <- { id = fresh_id t; name; parent = current t; req; start_ns; stop_ns } :: t.spans

(* Time [f] as a child of the innermost open span. *)
let with_span t ?(req = 0) name f =
  if not t.on then f ()
  else begin
    let id = fresh_id t in
    let parent = current t in
    t.open_ids <- id :: t.open_ids;
    let start_ns = Clock.now_ns () in
    Fun.protect f ~finally:(fun () ->
        let stop_ns = Clock.now_ns () in
        t.open_ids <- List.tl t.open_ids;
        t.spans <- { id; name; parent; req; start_ns; stop_ns } :: t.spans)
  end

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let union_ns ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if Int64.compare a cb <= 0 then (total, Some (ca, max cb b))
          else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  match last with
  | None -> total
  | Some (a, b) -> Int64.add total (Int64.sub b a)

(* Self time of every span: its duration minus the part of it that its
   children cover. Returned in recording order. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      let covered = union_ns ~lo:s.start_ns ~hi:s.stop_ns kids in
      (s, Clock.s_of_ns (Int64.sub (Int64.sub s.stop_ns s.start_ns) covered)))
    spans

(* Self seconds summed per layer, sorted by layer name. *)
let self_by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer_of s.name in
      Hashtbl.replace tbl l
        (self +. Option.value (Hashtbl.find_opt tbl l) ~default:0.0))
    (self_times spans);
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl [] |> List.sort compare

(* Share of the window [lo, hi] that no root span covers. *)
let uncovered_share spans ~lo ~hi =
  let window = Int64.sub hi lo in
  if Int64.compare window 0L <= 0 then 0.0
  else
    let roots =
      List.filter_map
        (fun s -> if s.parent = 0 then Some (s.start_ns, s.stop_ns) else None)
        spans
    in
    1.0 -. (Int64.to_float (union_ns ~lo ~hi roots) /. Int64.to_float window)

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ns\":%Ld,\"stop_ns\":%Ld}\n"
        s.id s.name s.parent s.req s.start_ns s.stop_ns)
    spans;
  close_out oc
