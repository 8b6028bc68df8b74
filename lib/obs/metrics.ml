type histogram = {
  bounds : float array; (* strictly increasing upper bounds *)
  counts : int array; (* length bounds + 1; last is overflow *)
}

type cell =
  | Gauge_fn of (unit -> float)
  | Histogram of histogram

type metric = { name : string; cell : cell }

type t = {
  mutable metrics : metric list; (* newest first *)
  names : (string, unit) Hashtbl.t;
}

let create () = { metrics = []; names = Hashtbl.create 32 }

let register t name cell =
  if Hashtbl.mem t.names name then
    invalid_arg (Printf.sprintf "Metrics: duplicate metric %S" name);
  Hashtbl.add t.names name ();
  t.metrics <- { name; cell } :: t.metrics

let gauge_fn t name f = register t name (Gauge_fn f)

let histogram t name ~bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metrics.histogram: empty bounds";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: bounds must be strictly increasing"
  done;
  let h = { bounds = Array.copy bounds; counts = Array.make (n + 1) 0 } in
  register t name (Histogram h);
  h

(* Linear scan: bucket counts are small (a handful of bounds), so this
   beats binary search and stays branch-predictable.  The count arrives
   as an int and is converted here, so no float is boxed per call. *)
let observe h count =
  let v = float_of_int count in
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do
    incr i
  done;
  h.counts.(!i) <- h.counts.(!i) + 1

(* A metric's expanded names: a gauge's own, or a histogram's
   cumulative [le_<bound>] rows (%g keeps them stable and short: 0.5,
   10, 1e+06), then [le_inf] and [count]. *)
let names m =
  match m.cell with
  | Gauge_fn _ -> [ m.name ]
  | Histogram h ->
    List.map (Printf.sprintf "%s.le_%g" m.name) (Array.to_list h.bounds)
    @ [ m.name ^ ".le_inf"; m.name ^ ".count" ]

(* The values of a cell's expanded rows, in [names] order, each passed
   to [emit]: the snapshot and the recorder's tick share this walk. *)
let emit_values cell emit =
  match cell with
  | Gauge_fn f -> emit (f ())
  | Histogram h ->
    let n = Array.length h.bounds in
    let cumulative = ref 0 in
    for i = 0 to n - 1 do
      cumulative := !cumulative + h.counts.(i);
      emit (float_of_int !cumulative)
    done;
    let total = float_of_int (!cumulative + h.counts.(n)) in
    emit total;
    emit total

let snapshot t =
  List.concat_map
    (fun m ->
      let values = ref [] in
      emit_values m.cell (fun v -> values := v :: !values);
      List.combine (names m) (List.rev !values))
    (List.rev t.metrics)

let float_json f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Json.float_repr f

let to_json t =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":%s" (Json.escape k) (float_json v))
         (snapshot t))
  ^ "}"

(* ------------------------------------------------------------------ *)
(* Periodic recording                                                  *)
(* ------------------------------------------------------------------ *)

(* The sample path walks two preallocated arrays fixed at [record]
   time — the cells in registration order and one series per expanded
   name — so a tick allocates nothing beyond the series' chunk
   allocations (no snapshot lists, no name strings). *)
type recorder = {
  sim : Engine.Sim.t;
  dt : float;
  cells : cell array; (* registration order, fixed *)
  names : string array; (* expanded, registration order *)
  series : Trace.Series.t array; (* parallel to [names] *)
  timer : Engine.Sim.Timer.timer;
}

let sample r =
  let now = Engine.Sim.now r.sim in
  let j = ref 0 in
  let push v =
    Trace.Series.add r.series.(!j) ~time:now ~value:v;
    incr j
  in
  Array.iter (fun cell -> emit_values cell push) r.cells

let record t sim ~dt =
  if Float.is_nan dt || dt <= 0. then
    invalid_arg "Metrics.record: dt must be positive";
  let names = Array.of_list (List.concat_map names (List.rev t.metrics)) in
  let r =
    {
      sim;
      dt;
      cells = Array.of_list (List.rev_map (fun m -> m.cell) t.metrics);
      names;
      series = Array.map (fun _ -> Trace.Series.create ()) names;
      timer = Engine.Sim.Timer.create sim (fun () -> ());
    }
  in
  Engine.Sim.Timer.set_action r.timer (fun () ->
      sample r;
      Engine.Sim.Timer.set r.timer ~delay:r.dt);
  sample r;
  Engine.Sim.Timer.set r.timer ~delay:dt;
  r

let recorder_series r =
  List.init (Array.length r.names) (fun i -> (r.names.(i), r.series.(i)))
