type t = {
  report : Report.t;
  net : Net.Network.t;
  clock : Clock.t;
  conservation : Conservation.t;
  monotone : Monotone.t;
  fifos : (Net.Link.t * Fifo_order.t) list;
  tahoes : Tahoe_rules.t list;
  mutable finalized : bool;
}

let attach net ~conns =
  let report = Report.create () in
  let sim = Net.Network.sim net in
  let clock = Clock.attach report sim in
  let conservation = Conservation.attach report net in
  let monotone = Monotone.attach report net in
  let fifos =
    List.filter_map
      (fun link ->
        match Fifo_order.attach report link with
        | Some checker -> Some (link, checker)
        | None -> None)
      (Net.Network.links net)
  in
  let tahoes = List.filter_map (Tahoe_rules.attach report) conns in
  { report; net; clock; conservation; monotone; fifos; tahoes;
    finalized = false }

let report t = t.report
let conservation t = t.conservation

let max_ack_delivered t ~conn = Monotone.max_ack_delivered t.monotone ~conn

let finalize t ~now =
  if not t.finalized then begin
    t.finalized <- true;
    Conservation.finalize t.conservation ~time:now
      ~links:(Net.Network.links t.net);
    List.iter
      (fun (link, checker) ->
        Fifo_order.finalize checker ~time:now
          ~occupancy:(Net.Link.queue_length link))
      t.fifos
  end;
  t.report
