type record = {
  time : float;
  conn : int;
  kind : Net.Packet.kind;
  seq : int;
  link : int;
}

(* One row per drop, column-wise; [code] packs conn and kind. *)
type t = {
  time : Column.Float.t;
  code : Column.Int.t;
  seq : Column.Int.t;
  link : Column.Int.t;
}

let create () =
  { time = Column.Float.create (); code = Column.Int.create ();
    seq = Column.Int.create (); link = Column.Int.create () }

let watch t link =
  let id = Net.Link.id link in
  Net.Link.on_drop link (fun (p : Net.Packet.t) ->
      Column.Float.push t.time (Net.Link.now link);
      Column.Int.push t.code (Rows.pack ~conn:p.conn ~kind:p.kind);
      Column.Int.push t.seq p.seq;
      Column.Int.push t.link id)

let total t = Column.Float.length t.time

let record t i =
  let code = Column.Int.get t.code i in
  { time = Column.Float.get t.time i; conn = Rows.conn code;
    kind = Rows.kind code; seq = Column.Int.get t.seq i;
    link = Column.Int.get t.link i }

let records t = Rows.all (total t) (record t)
let in_window t ~t0 ~t1 = Rows.in_window t.time ~t0 ~t1 (record t)
