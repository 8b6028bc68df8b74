type series = { cwnd : Series.t; ssthresh : Series.t }
type t = { conn : int; series : series option }

let record s sender ~cwnd ~ssthresh =
  let time = Tcp.Sender.now sender in
  Series.add s.cwnd ~time ~value:cwnd;
  Series.add s.ssthresh ~time ~value:ssthresh

let attach ?(keep = true) sender =
  let conn = (Tcp.Sender.config sender).Tcp.Config.conn in
  if not keep then { conn; series = None }
  else begin
    let s = { cwnd = Series.create (); ssthresh = Series.create () } in
    record s sender ~cwnd:(Tcp.Sender.cwnd sender)
      ~ssthresh:(Tcp.Sender.ssthresh sender);
    Tcp.Sender.on_cwnd sender (record s sender);
    { conn; series = Some s }
  end

let series t =
  match t.series with
  | Some s -> s
  | None -> invalid_arg "Cwnd_trace: the Cwnd log was not kept"

let cwnd t = (series t).cwnd
let ssthresh t = (series t).ssthresh
let conn t = t.conn
