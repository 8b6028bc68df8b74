type record = {
  time : float;
  conn : int;
  kind : Net.Packet.kind;
  seq : int;
  sojourn : float;
}

(* One row per departure, column-wise; [code] packs conn and kind.  The
   hook stores the enqueue time it was handed (already boxed) and the
   sojourn is subtracted on read: the same IEEE subtraction, so every
   sojourn is bit-identical to one computed at departure, and no float
   is boxed per departure. *)
type t = {
  link : Net.Link.t;
  pending : float Engine.Int_tbl.t;  (* packet id -> enqueue time *)
  time : Column.Float.t;
  code : Column.Int.t;
  seq : Column.Int.t;
  entered : Column.Float.t;  (* nan: queued before the log attached *)
}

let attach link =
  let t =
    { link; pending = Engine.Int_tbl.create 64; time = Column.Float.create ();
      code = Column.Int.create (); seq = Column.Int.create ();
      entered = Column.Float.create () }
  in
  Net.Link.on_enqueue link (fun time (p : Net.Packet.t) _qlen ->
      Engine.Int_tbl.replace t.pending p.id time);
  Net.Link.on_drop link (fun _time (p : Net.Packet.t) ->
      (* A random-drop or FQ eviction can remove an already-entered packet. *)
      Engine.Int_tbl.remove t.pending p.id);
  Net.Link.on_depart link (fun time (p : Net.Packet.t) _qlen ->
      let entered =
        match Engine.Int_tbl.find t.pending p.id with
        | entered ->
          Engine.Int_tbl.remove t.pending p.id;
          entered
        | exception Not_found -> Float.nan
      in
      Column.Float.push t.time time;
      Column.Int.push t.code (Rows.pack ~conn:p.conn ~kind:p.kind);
      Column.Int.push t.seq p.seq;
      Column.Float.push t.entered entered);
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
