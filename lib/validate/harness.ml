type t = {
  report : Report.t;
  net : Net.Network.t;
  conservation : Conservation.t;
  monotone : Monotone.t;
  fifos : (Net.Link.t * Fifo_order.t) list;
  mutable finalized : bool;
}

(* One closure per hook site.  Where two checkers share a site, the
   order of the calls is the order of their reports at one event.
   Eviction and round-robin service are legitimately non-FIFO, so only
   drop-tail links get a Fifo_order. *)
let watch_link report conservation link =
  match Net.Link.discipline link with
  | Net.Discipline.Fifo ->
    let fifo =
      Fifo_order.create report
        ~subject:(Printf.sprintf "link %s" (Net.Link.name link))
        ~capacity:(Net.Link.capacity link)
    in
    Net.Link.on_enqueue link (fun p ->
        Fifo_order.observe_enqueue fifo ~time:(Net.Link.now link) p
          ~qlen:(Net.Link.queue_length link));
    Net.Link.on_fault link (fun event p ->
        let time = Net.Link.now link in
        Fifo_order.observe_fault fifo ~time event p;
        Conservation.observe_fault conservation ~time event p);
    Net.Link.on_drop link (fun p ->
        let time = Net.Link.now link in
        Fifo_order.observe_drop fifo ~time p;
        Conservation.observe_drop conservation ~time p);
    Net.Link.on_depart link (fun p ->
        Fifo_order.observe_depart fifo ~time:(Net.Link.now link) p
          ~qlen:(Net.Link.queue_length link));
    Some (link, fifo)
  | Net.Discipline.Random_drop _ | Net.Discipline.Fair_queue ->
    Net.Link.on_drop link (fun p ->
        Conservation.observe_drop conservation ~time:(Net.Link.now link) p);
    Net.Link.on_fault link (fun event p ->
        Conservation.observe_fault conservation ~time:(Net.Link.now link)
          event p);
    None

(* Reno's inflation and deflation, fixed windows and the rest of the
   zoo follow other rules than Tahoe's. *)
let watch_conn report conn =
  let sender = Tcp.Connection.sender conn in
  let config = Tcp.Sender.config sender in
  match config.Tcp.Config.cc.Tcp.Cc.name with
  | "tahoe" | "tahoe-unmodified" ->
    let tahoe =
      Tahoe_rules.create report
        ~subject:(Printf.sprintf "conn %d" config.Tcp.Config.conn)
        ~maxwnd:config.Tcp.Config.maxwnd
    in
    Tcp.Sender.on_loss sender (fun reason ->
        Tahoe_rules.observe_loss tahoe ~time:(Tcp.Sender.now sender) reason);
    Tcp.Sender.on_cwnd sender (fun ~cwnd ~ssthresh ->
        Tahoe_rules.observe_cwnd tahoe ~time:(Tcp.Sender.now sender) ~cwnd
          ~ssthresh)
  | _ -> ()

let attach net ~conns =
  let report = Report.create () in
  let sim = Net.Network.sim net in
  let clock = Clock.create report in
  Engine.Sim.on_event sim (fun () -> Clock.observe clock (Engine.Sim.now sim));
  let conservation = Conservation.create report in
  let monotone = Monotone.create report in
  Net.Network.on_inject net (fun p ->
      let time = Engine.Sim.now sim in
      Monotone.observe_inject monotone ~time p;
      Conservation.observe_inject conservation ~time p);
  Net.Network.on_deliver net (fun p ->
      let time = Engine.Sim.now sim in
      Monotone.observe_deliver monotone ~time p;
      Conservation.observe_deliver conservation ~time p);
  let fifos =
    List.filter_map (watch_link report conservation) (Net.Network.links net)
  in
  List.iter (watch_conn report) conns;
  { report; net; conservation; monotone; fifos; finalized = false }

let report t = t.report
let conservation t = t.conservation

let max_ack_delivered t ~conn = Monotone.max_ack_delivered t.monotone ~conn

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    let now = Engine.Sim.now (Net.Network.sim t.net) in
    Conservation.finalize t.conservation ~time:now
      ~links:(Net.Network.links t.net);
    List.iter
      (fun (link, checker) ->
        Fifo_order.finalize checker ~time:now
          ~occupancy:(Net.Link.queue_length link))
      t.fifos
  end;
  t.report
