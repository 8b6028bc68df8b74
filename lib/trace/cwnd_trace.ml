type t = { conn : int; cwnd : Series.t; ssthresh : Series.t }

let record t sender ~cwnd ~ssthresh =
  let time = Tcp.Sender.now sender in
  Series.add t.cwnd ~time ~value:cwnd;
  Series.add t.ssthresh ~time ~value:ssthresh

let attach sender =
  let t =
    {
      conn = (Tcp.Sender.config sender).Tcp.Config.conn;
      cwnd = Series.create ();
      ssthresh = Series.create ();
    }
  in
  record t sender ~cwnd:(Tcp.Sender.cwnd sender)
    ~ssthresh:(Tcp.Sender.ssthresh sender);
  Tcp.Sender.on_cwnd sender (record t sender);
  t

let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let conn t = t.conn
