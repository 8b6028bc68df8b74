type t = { config : Config.t; sender : Sender.t; receiver : Receiver.t }

let create net config =
  let sender = Sender.create net config in
  let receiver = Receiver.create net config in
  let dispatch (p : Net.Packet.t) =
    match p.kind with
    | Net.Packet.Ack -> Sender.on_ack sender p
    | Net.Packet.Data -> Receiver.on_data receiver p
  in
  Net.Network.register_endpoint net ~host:config.Config.src_host
    ~conn:config.Config.conn dispatch;
  Net.Network.register_endpoint net ~host:config.Config.dst_host
    ~conn:config.Config.conn dispatch;
  let sim = Net.Network.sim net in
  ignore
    (Engine.Sim.at sim ~time:config.Config.start_time (fun () ->
         Sender.start sender)
      : Engine.Sim.handle);
  { config; sender; receiver }

let config t = t.config
let sender t = t.sender
let receiver t = t.receiver
let cwnd t = Sender.cwnd t.sender
let ssthresh t = Sender.ssthresh t.sender
let delivered t = Sender.snd_una t.sender
