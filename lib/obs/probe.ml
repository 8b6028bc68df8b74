type setup = {
  metrics : bool;
  series_dt : float option;
  btrace : (string -> unit) option;
  flight : int option;
  flight_sink : string -> unit;
  flowstats : bool;
}

let setup ?(metrics = true) ?series_dt ?btrace ?flight ?flight_sink
    ?(flowstats = false) () =
  let flight_sink =
    match flight_sink with Some s -> s | None -> prerr_string
  in
  { metrics; series_dt; btrace; flight; flight_sink; flowstats }

let disabled = setup ~metrics:false ()

let is_enabled s =
  s.metrics || s.btrace <> None || s.flight <> None || s.flowstats

type t = {
  registry : Metrics.t option;
  recorder : Metrics.recorder option;
  writer : Btrace.writer option;
  flight : Btrace.writer option;
  fs : Flowstats.t option;
  flight_sink : string -> unit;
  mutable flight_dumped : bool;
}

(* Buffer occupancies land in the single digits to low hundreds in every
   scenario the paper studies; a coarse log-ish grid is plenty to read
   the distribution's shape off a snapshot. *)
let qlen_bounds = [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]

(* A count metric: a gauge over one of the model's own counters. *)
let count reg name f = Metrics.gauge_fn reg name (fun () -> float_of_int (f ()))

(* Each consumer installs its own hooks, so a hook never builds an event
   record or makes a call that its consumer does not need.

   Metrics: gauges read at snapshot time, plus the queue-length
   histogram, the one metric fed per event. *)

let register_link reg ~sim link =
  let pfx = "link." ^ Net.Link.name link in
  Metrics.gauge_fn reg (pfx ^ ".qlen") (fun () ->
      float_of_int (Net.Link.queue_length link));
  Metrics.gauge_fn reg (pfx ^ ".busy_time") (fun () ->
      Net.Link.busy_time link ~now:(Engine.Sim.now sim));
  let meter = Trace.Util_meter.start link ~now:(Engine.Sim.now sim) in
  Metrics.gauge_fn reg (pfx ^ ".utilization") (fun () ->
      Trace.Util_meter.utilization meter ~now:(Engine.Sim.now sim));
  let c = Net.Link.counters link in
  count reg (pfx ^ ".enq") (fun () -> c.enq_data + c.enq_ack);
  count reg (pfx ^ ".drop") (fun () -> c.drop_data + c.drop_ack);
  count reg (pfx ^ ".dep") (fun () -> c.dep_data + c.dep_ack);
  count reg (pfx ^ ".dep_bytes") (fun () -> c.dep_bytes);
  count reg (pfx ^ ".faults") (fun () -> c.faults);
  let h = Metrics.histogram reg (pfx ^ ".qlen_hist") ~bounds:qlen_bounds in
  Net.Link.on_enqueue link (fun _time _pkt qlen -> Metrics.observe h qlen)

let register_conn reg (cid, conn) =
  let s = Tcp.Connection.sender conn in
  let r = Tcp.Connection.receiver conn in
  let pfx = Printf.sprintf "conn.%d" cid in
  Metrics.gauge_fn reg (pfx ^ ".cwnd") (fun () -> Tcp.Sender.cwnd s);
  Metrics.gauge_fn reg (pfx ^ ".ssthresh") (fun () -> Tcp.Sender.ssthresh s);
  count reg (pfx ^ ".retransmits") (fun () -> Tcp.Sender.retransmits s);
  count reg (pfx ^ ".cwnd_cuts") (fun () ->
      Tcp.Sender.timeouts s + Tcp.Sender.fast_retransmits s);
  count reg (pfx ^ ".timeouts") (fun () -> Tcp.Sender.timeouts s);
  count reg (pfx ^ ".fast_rexmt") (fun () -> Tcp.Sender.fast_retransmits s);
  count reg (pfx ^ ".sends") (fun () ->
      Tcp.Sender.data_sent s + Tcp.Sender.retransmits s);
  count reg (pfx ^ ".acks") (fun () -> Tcp.Receiver.acks_sent r);
  count reg (pfx ^ ".delayed_acks") (fun () ->
      Tcp.Receiver.delayed_acks_sent r);
  count reg (pfx ^ ".dup_acks") (fun () -> Tcp.Receiver.dup_acks_sent r)

let register_metrics reg ~net ~conns =
  let sim = Net.Network.sim net in
  Metrics.gauge_fn reg "sim.events" (fun () ->
      float_of_int (Engine.Sim.events_run sim));
  Metrics.gauge_fn reg "sim.queue_depth" (fun () ->
      float_of_int (Engine.Sim.queue_length sim));
  count reg "net.injected" (fun () -> Net.Network.injected net);
  count reg "net.delivered" (fun () -> Net.Network.delivered net);
  List.iter (register_link reg ~sim) (Net.Network.links net);
  List.iter (register_conn reg) conns

(* Binary trace and flight recorder: every model event, written
   straight from the live values each hook receives. *)

let fault_label : Net.Link.fault_event -> string = function
  | Net.Link.Fault_drop label -> label
  | Net.Link.Fault_duplicate -> "duplicate"
  | Net.Link.Fault_delay _ -> "delay"

let loss_reason = function
  | Tcp.Cc.Timeout -> "timeout"
  | Tcp.Cc.Fast_retransmit -> "dup_ack"

let write_link w link =
  Btrace.declare_link w link;
  Net.Link.on_enqueue link (fun time pkt qlen ->
      Btrace.enqueue w ~time ~link ~pkt ~qlen);
  Net.Link.on_drop link (fun time pkt -> Btrace.drop w ~time ~link ~pkt);
  Net.Link.on_depart link (fun time pkt qlen ->
      Btrace.depart w ~time ~link ~pkt ~qlen);
  Net.Link.on_fault link (fun time fe pkt ->
      Btrace.fault w ~time ~link ~label:(fault_label fe) ~pkt)

let write_conn w (conn, c) =
  let cfg = Tcp.Connection.config c in
  Btrace.declare_conn_meta w conn ~start_time:cfg.Tcp.Config.start_time
    ~flow_size:cfg.Tcp.Config.flow_size;
  let s = Tcp.Connection.sender c in
  Tcp.Sender.on_cwnd s (fun time ~cwnd ~ssthresh ->
      Btrace.cwnd w ~time ~conn ~cwnd ~ssthresh);
  Tcp.Sender.on_loss s (fun time reason ->
      Btrace.loss w ~time ~conn ~reason:(loss_reason reason));
  Tcp.Sender.on_send s (fun time pkt -> Btrace.send w ~time ~conn ~pkt);
  Tcp.Receiver.on_ack_sent (Tcp.Connection.receiver c)
    (fun time ~ackno ~delayed ~dup ->
      Btrace.ack_tx w ~time ~conn ~ackno ~delayed ~dup)

let write_events w ~net ~conns =
  Net.Network.on_inject net (fun time p -> Btrace.inject w ~time p);
  Net.Network.on_deliver net (fun time p -> Btrace.deliver w ~time p);
  List.iter (write_link w) (Net.Network.links net);
  List.iter (write_conn w) conns

(* Flowstats: per-flow sends, losses, cwnd extrema and deliveries. *)

let account_conn fs (cid, conn) =
  let cfg = Tcp.Connection.config conn in
  Flowstats.register fs ~conn:cid ~start_time:cfg.Tcp.Config.start_time
    ~flow_size:cfg.Tcp.Config.flow_size;
  (* The sender's hooks hold the flow record: no lookup per event. *)
  let f = Flowstats.flow fs ~conn:cid in
  let s = Tcp.Connection.sender conn in
  Tcp.Sender.on_cwnd s (fun _time ~cwnd ~ssthresh:_ ->
      Flowstats.flow_cwnd f ~cwnd);
  Tcp.Sender.on_loss s (fun _time _reason -> Flowstats.flow_loss f);
  Tcp.Sender.on_send s (fun time pkt ->
      Flowstats.flow_send f ~time ~seq:pkt.Net.Packet.seq
        ~retransmit:pkt.Net.Packet.retransmit)

let account fs ~net ~conns =
  (* [time] is [Sim.now], the stamp the trace writer uses, so the offline
     fold over the trace sees bit-identical times. *)
  Net.Network.on_deliver net (fun time p ->
      match p.Net.Packet.kind with
      | Net.Packet.Data ->
        Flowstats.record_data_delivered fs ~conn:p.Net.Packet.conn
          ~bytes:p.Net.Packet.size
      | Net.Packet.Ack ->
        Flowstats.record_ack_delivered fs ~time ~conn:p.Net.Packet.conn
          ~ackno:p.Net.Packet.seq);
  List.iter (account_conn fs) conns

let attach setup ~net ~conns =
  let sim = Net.Network.sim net in
  let writer = Option.map (fun sink -> Btrace.writer sink) setup.btrace in
  let flight = Option.map Btrace.recorder setup.flight in
  let fs = if setup.flowstats then Some (Flowstats.create ()) else None in
  let registry = if setup.metrics then Some (Metrics.create ()) else None in
  Option.iter (fun reg -> register_metrics reg ~net ~conns) registry;
  Option.iter (fun w -> write_events w ~net ~conns) writer;
  Option.iter (fun w -> write_events w ~net ~conns) flight;
  Option.iter (fun fs -> account fs ~net ~conns) fs;
  (* The recorder snapshots whatever is registered at creation time, so it
     must come after all of the wiring above. *)
  let recorder =
    match (registry, setup.series_dt) with
    | Some reg, Some dt -> Some (Metrics.record reg sim ~dt)
    | _ -> None
  in
  { registry; recorder; writer; flight; fs; flight_sink = setup.flight_sink;
    flight_dumped = false }

let flight_text t ~reason =
  Option.map
    (fun f ->
      let lines = Buffer.create 4096 in
      let shown = Btrace.recent_jsonl f (Buffer.add_string lines) in
      Printf.sprintf
        "=== flight recorder: %s (last %d of %d events) ===\n\
         %s=== end flight recorder ===\n"
        reason shown (Btrace.events_written f) (Buffer.contents lines))
    t.flight

let dump_flight t ~reason = Option.iter t.flight_sink (flight_text t ~reason)

let arm_report t report =
  Validate.Report.on_violation report (fun v ->
      if not t.flight_dumped then begin
        t.flight_dumped <- true;
        dump_flight t
          ~reason:
            (Printf.sprintf "validate: %s (%s) at t=%.6f: %s"
               v.Validate.Report.checker v.Validate.Report.subject
               v.Validate.Report.time v.Validate.Report.detail)
      end)

let finish t = Option.iter Btrace.flush t.writer
let flowstats t = t.fs

let final_metrics t =
  match t.registry with Some reg -> Metrics.snapshot reg | None -> []

let series t =
  match t.recorder with
  | Some r -> Metrics.recorder_series r
  | None -> []

let metrics_json t =
  match t.registry with Some reg -> Metrics.to_json reg | None -> "{}"

let events_traced t =
  match t.writer with Some w -> Btrace.events_written w | None -> 0
