open Engine
open Net
open Tcp

(* Full end-to-end connections over the paper's dumbbell. *)
let dumbbell ?(tau = 0.01) ?(buffer = Some 20) () =
  let sim = Sim.create () in
  let d = Topology.dumbbell sim (Topology.params ~tau ~buffer ()) in
  (sim, d)

let test_reliable_in_order_delivery () =
  let sim, d = dumbbell () in
  let config = Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2 () in
  let conn = Connection.create d.net config in
  Sim.run sim ~until:60.;
  let receiver = Connection.receiver conn in
  (* The receiver's cumulative counter only advances on in-order data, so
     rcv_nxt = number of packets delivered reliably and in order. *)
  Alcotest.(check bool) "many packets delivered" true
    (Receiver.rcv_nxt receiver > 300);
  (* the receiver can only be ahead by ACKs still in flight *)
  let gap = Receiver.rcv_nxt receiver - Sender.snd_una (Connection.sender conn) in
  Alcotest.(check bool) "sender within an ack-flight of the receiver" true
    (gap >= 0 && gap <= 4)

let test_throughput_near_capacity () =
  let sim, d = dumbbell ~tau:0.01 () in
  let config = Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2 () in
  let conn = Connection.create d.net config in
  Sim.run sim ~until:100.;
  let delivered_50 = Connection.delivered conn in
  Sim.run sim ~until:200.;
  let rate =
    float_of_int (Connection.delivered conn - delivered_50) /. 100.
  in
  (* Bottleneck capacity is 12.5 packets/s; one connection with a tiny
     pipe should stay close to it. *)
  Alcotest.(check bool) "goodput near 12.5 pkt/s" true
    (rate > 11. && rate <= 12.6)

let test_losses_recovered () =
  let sim, d = dumbbell ~tau:1.0 ~buffer:(Some 5) () in
  (* A small buffer forces plenty of drops. *)
  let config = Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2 () in
  let conn = Connection.create d.net config in
  let drops = ref 0 in
  Link.on_drop d.fwd (fun _ -> incr drops);
  Sim.run sim ~until:300.;
  Alcotest.(check bool) "drops happened" true (!drops > 3);
  Alcotest.(check bool) "and were all recovered" true
    (Connection.delivered conn > 1000)

let test_two_way_pair () =
  let sim, d = dumbbell ~tau:0.01 () in
  let c1 =
    Connection.create d.net
      (Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2 ())
  in
  let c2 =
    Connection.create d.net
      (Config.make ~conn:2 ~src_host:d.host2 ~dst_host:d.host1
         ~start_time:1.0 ())
  in
  Sim.run sim ~until:120.;
  Alcotest.(check bool) "conn1 progressed" true (Connection.delivered c1 > 100);
  Alcotest.(check bool) "conn2 progressed" true (Connection.delivered c2 > 100)

let test_determinism () =
  let run () =
    let sim, d = dumbbell ~tau:0.01 () in
    let _c1 =
      Connection.create d.net
        (Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2 ())
    in
    let _c2 =
      Connection.create d.net
        (Config.make ~conn:2 ~src_host:d.host2 ~dst_host:d.host1
           ~start_time:1.0 ())
    in
    let drops = ref [] in
    List.iter
      (fun link ->
        Link.on_drop link (fun p ->
            drops := (Link.now link, p.Packet.conn, p.Packet.seq) :: !drops))
      (Network.links d.net);
    Sim.run sim ~until:150.;
    (!drops, Sim.events_run sim)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical drop traces" true (fst a = fst b);
  Alcotest.(check int) "identical event counts" (snd a) (snd b)

let test_fixed_window_steady_state () =
  let sim, d = dumbbell ~tau:0.01 ~buffer:None () in
  let conn =
    Connection.create d.net
      (Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2
         ~cc:(Cc.spec ~params:[ ("w", 10.) ] "fixed") ~loss_detection:false ())
  in
  Sim.run sim ~until:100.;
  let sender = Connection.sender conn in
  Alcotest.(check int) "window never moves" 10 (Tcp.Cc.window (Sender.cc sender));
  Alcotest.(check int) "exactly a window outstanding" 10
    (Sender.outstanding sender);
  Alcotest.(check int) "no retransmissions" 0 (Sender.retransmits sender)

let test_conservation () =
  (* Link-level conservation on the bottleneck after a loss-heavy run:
     everything enqueued either departed or is still queued. *)
  let sim, d = dumbbell ~tau:0.01 ~buffer:(Some 5) () in
  let _c1 =
    Connection.create d.net
      (Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2 ())
  in
  let _c2 =
    Connection.create d.net
      (Config.make ~conn:2 ~src_host:d.host2 ~dst_host:d.host1
         ~start_time:0.5 ())
  in
  Sim.run sim ~until:200.;
  List.iter
    (fun link ->
      let c = Link.counters link in
      Alcotest.(check int)
        ("conservation on " ^ Link.name link)
        (c.Link.enq_data + c.Link.enq_ack)
        (c.Link.dep_data + c.Link.dep_ack + Link.queue_length link))
    (Network.links d.net)

let suite =
  ( "connection",
    [
      Alcotest.test_case "reliable in-order delivery" `Quick
        test_reliable_in_order_delivery;
      Alcotest.test_case "throughput near capacity" `Quick
        test_throughput_near_capacity;
      Alcotest.test_case "losses recovered" `Quick test_losses_recovered;
      Alcotest.test_case "two-way pair" `Quick test_two_way_pair;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "fixed window steady state" `Quick
        test_fixed_window_steady_state;
      Alcotest.test_case "conservation" `Quick test_conservation;
    ] )
