type record = {
  time : float;
  conn : int;
  kind : Net.Packet.kind;
  seq : int;
  sojourn : float;
}

(* One row per departure, column-wise; [code] packs conn and kind.  The
   sojourn is subtracted on read: the same IEEE subtraction, so every
   sojourn is bit-identical to one computed at departure. *)
type rows = {
  time : Column.Float.t;
  code : Column.Int.t;
  seq : Column.Int.t;
  entered : Column.Float.t;  (* nan: queued before the log attached *)
}

(* The ACK-sojourn fold.  All floats, so OCaml stores the record flat
   and an update allocates nothing.  [sum] adds every counted sojourn
   oldest first; [before] is that sum as it stood before the first ACK
   departing at [last], the time of the newest one. *)
type acks = {
  t0 : float;
  mutable last : float;
  mutable sum : float;
  mutable before : float;
}

(* The packets accepted and not yet gone wait in a ring, oldest first:
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
  rows : rows option;  (* [None] unless the log keeps its departures *)
  acks : acks;
  mutable count : int;  (* ACKs in [acks.sum] *)
  mutable count_before : int;  (* ACKs in [acks.before] *)
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

let[@inline] count_ack t now sojourn =
  let a = t.acks in
  if now >= a.t0 && not (Float.is_nan sojourn) then begin
    if now > a.last then begin
      a.before <- a.sum;
      t.count_before <- t.count;
      a.last <- now
    end;
    a.sum <- a.sum +. sojourn;
    t.count <- t.count + 1
  end

let attach ?(keep = true) ?(t0 = Float.neg_infinity) link =
  let rows =
    if keep then
      Some { time = Column.Float.create (); code = Column.Int.create ();
             seq = Column.Int.create (); entered = Column.Float.create () }
    else None
  in
  let t =
    { link; ids = [||]; entered_at = [||]; head = 0; pending = 0; rows;
      acks = { t0; last = Float.neg_infinity; sum = 0.; before = 0. };
      count = 0; count_before = 0 }
  in
  Net.Link.on_enqueue link (fun (p : Net.Packet.t) ->
      accept t p.id (Net.Link.now link));
  Net.Link.on_drop link (fun (p : Net.Packet.t) ->
      (* A random-drop or FQ eviction or an outage flush can remove an
         accepted packet; a rejected arrival is not pending. *)
      let i = find t p.id in
      if i >= 0 then forget t i);
  Net.Link.on_depart link (fun (p : Net.Packet.t) ->
      let now = Net.Link.now link in
      let i = find t p.id in
      let entered = if i < 0 then Float.nan else t.entered_at.(slot t i) in
      if i >= 0 then forget t i;
      (match t.rows with
       | Some r ->
         Column.Float.push r.time now;
         Column.Int.push r.code (Rows.pack ~conn:p.conn ~kind:p.kind);
         Column.Int.push r.seq p.seq;
         Column.Float.push r.entered entered
       | None -> ());
      if p.kind = Net.Packet.Ack then count_ack t now (now -. entered));
  t

let link t = t.link

let rows t =
  match t.rows with
  | Some r -> r
  | None -> invalid_arg "Dep_log: the Departures log was not kept"

let total t = Column.Float.length (rows t).time

let record r i =
  let code = Column.Int.get r.code i in
  let time = Column.Float.get r.time i in
  { time; conn = Rows.conn code; kind = Rows.kind code;
    seq = Column.Int.get r.seq i;
    sojourn = time -. Column.Float.get r.entered i }

let records t =
  let r = rows t in
  Rows.all (Column.Float.length r.time) (record r)

let in_window t ~t0 ~t1 =
  let r = rows t in
  Rows.in_window r.time ~t0 ~t1 (record r)

(* Every counted ACK departed at or before [last]; those at [t1] lie
   outside the window and are exactly the ones after [before]. *)
let mean_ack_sojourn t ~t1 =
  let a = t.acks in
  if a.last > t1 then
    invalid_arg "Dep_log.mean_ack_sojourn: an ACK departed after t1";
  let sum, count =
    if a.last = t1 then (a.before, t.count_before) else (a.sum, t.count)
  in
  if count = 0 then None else Some (sum /. float_of_int count)
