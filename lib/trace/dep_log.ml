type record = {
  time : float;
  conn : int;
  kind : Net.Packet.kind;
  seq : int;
  sojourn : float;
}

(* One row per departure, column-wise; [code] packs conn and kind.  The
   sojourn is subtracted on read: the same IEEE subtraction, so every
   sojourn is bit-identical to one computed at departure.

   The packets accepted and not yet gone wait in a ring, oldest first:
   ids and enqueue times in two flat arrays whose length is a power of
   two, so an enqueue stores an int and an unboxed float and allocates
   nothing once the ring has grown to the largest backlog.  A FIFO
   departure is always the head.  Fair Queueing, Random Drop evictions
   and outage flushes take a packet from further in, and the younger
   ones shift down a slot to close the gap. *)
type t = {
  link : Net.Link.t;
  mutable ids : int array;
  mutable entered_at : float array;
  mutable head : int;
  mutable pending : int;
  time : Column.Float.t;
  code : Column.Int.t;
  seq : Column.Int.t;
  entered : Column.Float.t;  (* nan: queued before the log attached *)
}

let slot t i = (t.head + i) land (Array.length t.ids - 1)

let grow t =
  let cap = max 16 (2 * Array.length t.ids) in
  let ids = Array.make cap 0 and entered_at = Array.make cap 0. in
  for i = 0 to t.pending - 1 do
    let s = slot t i in
    ids.(i) <- t.ids.(s);
    entered_at.(i) <- t.entered_at.(s)
  done;
  t.ids <- ids;
  t.entered_at <- entered_at;
  t.head <- 0

let[@inline] accept t id time =
  if t.pending = Array.length t.ids then grow t;
  let s = slot t t.pending in
  t.ids.(s) <- id;
  t.entered_at.(s) <- time;
  t.pending <- t.pending + 1

(* The offset of [id] from the head, or -1 if it is not pending.  A
   loop, not a local recursive function, so no closure is built per
   call. *)
let find t id =
  let i = ref 0 in
  while !i < t.pending && t.ids.(slot t !i) <> id do
    incr i
  done;
  if !i < t.pending then !i else -1

let forget t i =
  if i = 0 then t.head <- slot t 1
  else
    for j = i to t.pending - 2 do
      let dst = slot t j and src = slot t (j + 1) in
      t.ids.(dst) <- t.ids.(src);
      t.entered_at.(dst) <- t.entered_at.(src)
    done;
  t.pending <- t.pending - 1

let attach link =
  let t =
    { link; ids = [||]; entered_at = [||]; head = 0; pending = 0;
      time = Column.Float.create (); code = Column.Int.create ();
      seq = Column.Int.create (); entered = Column.Float.create () }
  in
  Net.Link.on_enqueue link (fun (p : Net.Packet.t) ->
      accept t p.id (Net.Link.now link));
  Net.Link.on_drop link (fun (p : Net.Packet.t) ->
      (* A random-drop or FQ eviction or an outage flush can remove an
         accepted packet; a rejected arrival is not pending. *)
      let i = find t p.id in
      if i >= 0 then forget t i);
  Net.Link.on_depart link (fun (p : Net.Packet.t) ->
      Column.Float.push t.time (Net.Link.now link);
      Column.Int.push t.code (Rows.pack ~conn:p.conn ~kind:p.kind);
      Column.Int.push t.seq p.seq;
      let i = find t p.id in
      if i < 0 then Column.Float.push t.entered Float.nan
      else begin
        Column.Float.push t.entered t.entered_at.(slot t i);
        forget t i
      end);
  t

let link t = t.link
let total t = Column.Float.length t.time

let record t i =
  let code = Column.Int.get t.code i in
  let time = Column.Float.get t.time i in
  { time; conn = Rows.conn code; kind = Rows.kind code;
    seq = Column.Int.get t.seq i;
    sojourn = time -. Column.Float.get t.entered i }

let records t = Rows.all (total t) (record t)
let in_window t ~t0 ~t1 = Rows.in_window t.time ~t0 ~t1 (record t)

(* A chunk-by-chunk scan of the columns: it adds the matching sojourns
   oldest first, the order a left fold over [in_window] would, so the
   mean is bit-identical to that fold's. *)
let mean_sojourn t ~kind ~t0 ~t1 =
  let n = total t in
  let sum = ref 0. and count = ref 0 in
  for c = 0 to Column.chunk_count n - 1 do
    let ts = Column.Float.chunk t.time c in
    let es = Column.Float.chunk t.entered c in
    let cs = Column.Int.chunk t.code c in
    for k = 0 to Column.chunk_length n c - 1 do
      let tm = Array.unsafe_get ts k in
      let s = tm -. Array.unsafe_get es k in
      if tm >= t0 && tm < t1 && Rows.kind (Array.unsafe_get cs k) = kind
         && not (Float.is_nan s)
      then begin
        sum := !sum +. s;
        incr count
      end
    done
  done;
  if !count = 0 then None else Some (!sum /. float_of_int !count)

let effective_pipe_packets t ~data_tx ~t0 ~t1 =
  if data_tx <= 0. then invalid_arg "Dep_log: data_tx must be positive";
  match mean_sojourn t ~kind:Net.Packet.Ack ~t0 ~t1 with
  | None -> None
  | Some mean -> Some (mean /. data_tx)
