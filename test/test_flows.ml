(* Sized flows, departure-log sojourns, and randomized whole-system
   robustness. *)

open Engine
open Net
open Tcp

let dumbbell ?(tau = 0.01) ?(buffer = Some 20) () =
  let sim = Sim.create () in
  let d = Topology.dumbbell sim (Topology.params ~tau ~buffer ()) in
  (sim, d)

(* --- Sized flows ------------------------------------------------------ *)

let test_flow_completes () =
  let sim, d = dumbbell () in
  let conn =
    Connection.create d.net
      (Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2
         ~flow_size:(Some 100) ())
  in
  Sim.run sim ~until:120.;
  let sender = Connection.sender conn in
  Alcotest.(check int) "exactly the flow delivered" 100
    (Connection.delivered conn);
  Alcotest.(check int) "no data beyond the flow" 100 (Sender.data_sent sender);
  (* 100 packets at 12.5 pkt/s bottleneck: at least 8 s, well under 120 *)
  (match Sender.completed_at sender with
   | Some t -> Alcotest.(check bool) "completion time sane" true (t > 8. && t < 60.)
   | None -> Alcotest.fail "no completion time")

let test_flow_completes_despite_losses () =
  let sim, d = dumbbell ~buffer:(Some 4) () in
  let conn =
    Connection.create d.net
      (Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2
         ~flow_size:(Some 200) ())
  in
  Sim.run sim ~until:300.;
  Alcotest.(check bool) "losses occurred" true (Link.total_drops d.fwd > 0);
  Alcotest.(check bool) "still completed" true
    (Sender.completed_at (Connection.sender conn) <> None);
  Alcotest.(check int) "all packets delivered in order" 200
    (Receiver.rcv_nxt (Connection.receiver conn))

let test_flow_sender_goes_quiet () =
  let sim, d = dumbbell () in
  let conn =
    Connection.create d.net
      (Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2
         ~flow_size:(Some 20) ())
  in
  Sim.run sim ~until:60.;
  let events_at_60 = Sim.events_run sim in
  Sim.run sim ~until:120.;
  Alcotest.(check bool) "flow done" true
    (Sender.completed_at (Connection.sender conn) <> None);
  Alcotest.(check int) "no further activity after completion" events_at_60
    (Sim.events_run sim)

let test_infinite_flow_never_completes () =
  let sim, d = dumbbell () in
  let conn =
    Connection.create d.net
      (Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2 ())
  in
  Sim.run sim ~until:60.;
  Alcotest.(check bool) "infinite source" true
    (Sender.completed_at (Connection.sender conn) = None)

let test_bad_flow_size () =
  let raised =
    try
      ignore
        (Config.make ~conn:1 ~src_host:0 ~dst_host:1 ~flow_size:(Some 0) ()
          : Config.t);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero flow rejected" true raised

(* --- Departure-log sojourns ---------------------------------------------- *)

let test_sojourn_values () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~id:0 ~name:"s" ~src:0 ~dst:1 ~bandwidth:50_000.
      ~prop_delay:0. ~buffer:None
  in
  Link.set_deliver link (fun _ -> ());
  let trace = Trace.Dep_log.attach link in
  let packet seq =
    {
      Packet.id = seq;
      conn = 1;
      kind = Packet.Data;
      seq;
      size = 500;
      src = 0;
      dst = 1;
      retransmit = false;
    }
  in
  ignore (Link.send link (packet 0) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet 1) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  (match Trace.Dep_log.records trace with
   | [ a; b ] ->
     (* first: serialization only (80 ms); second: waits behind it *)
     Alcotest.(check (float 1e-9)) "head sojourn" 0.08 a.Trace.Dep_log.sojourn;
     Alcotest.(check (float 1e-9)) "queued sojourn" 0.16 b.Trace.Dep_log.sojourn
   | _ -> Alcotest.fail "expected two records");
  Alcotest.(check bool) "no acks crossed" true
    (Trace.Dep_log.mean_ack_sojourn trace ~t1:1. = None)

let test_effective_pipe_from_acks () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~id:0 ~name:"s" ~src:0 ~dst:1 ~bandwidth:50_000.
      ~prop_delay:0. ~buffer:None
  in
  Link.set_deliver link (fun _ -> ());
  let trace = Trace.Dep_log.attach link in
  let data =
    {
      Packet.id = 0;
      conn = 1;
      kind = Packet.Data;
      seq = 0;
      size = 500;
      src = 0;
      dst = 1;
      retransmit = false;
    }
  in
  let ack = { data with Packet.id = 1; kind = Packet.Ack; size = 50 } in
  ignore (Link.send link data : [ `Ok | `Dropped ]);
  ignore (Link.send link ack : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  (* the ACK waited a full data transmission + its own 8 ms *)
  match Trace.Dep_log.mean_ack_sojourn trace ~t1:1. with
  | Some sojourn ->
    Alcotest.(check (float 1e-6)) "1.1 data slots" 1.1 (sojourn /. 0.08)
  | None -> Alcotest.fail "expected an ack sojourn"

let test_sojourn_before_attach () =
  (* A packet already in the buffer when the log attaches has no entry
     time: it departs with a nan sojourn, stays in the log, and the ACK
     fold skips it. *)
  let sim = Sim.create () in
  let link =
    Link.create sim ~id:0 ~name:"s" ~src:0 ~dst:1 ~bandwidth:50_000.
      ~prop_delay:0. ~buffer:None
  in
  Link.set_deliver link (fun _ -> ());
  let packet seq =
    {
      Packet.id = seq;
      conn = 1;
      kind = Packet.Ack;  (* counted by the fold; the size sets the timing *)
      seq;
      size = 500;
      src = 0;
      dst = 1;
      retransmit = false;
    }
  in
  ignore (Link.send link (packet 0) : [ `Ok | `Dropped ]);
  let trace = Trace.Dep_log.attach link in
  ignore (Link.send link (packet 1) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  (match Trace.Dep_log.records trace with
   | [ a; b ] ->
     Alcotest.(check int) "early packet logged" 0 a.Trace.Dep_log.seq;
     Alcotest.(check bool) "early packet has a nan sojourn" true
       (Float.is_nan a.Trace.Dep_log.sojourn);
     Alcotest.(check (float 1e-9)) "later packet waits behind it" 0.16
       b.Trace.Dep_log.sojourn
   | _ -> Alcotest.fail "expected two records");
  Alcotest.(check (option (float 1e-9))) "the fold skips the nan" (Some 0.16)
    (Trace.Dep_log.mean_ack_sojourn trace ~t1:1.)

let test_runner_effective_pipe () =
  (* Two-way traffic queues ACKs; one-way barely does. *)
  let run conns =
    Core.Runner.run
      (Core.Scenario.make ~name:"ep" ~tau:0.01 ~buffer:(Some 20) ~conns
         ~duration:120. ~warmup:40. ())
  in
  let oneway = run [ Core.Scenario.conn Core.Scenario.Forward ] in
  let twoway =
    run
      [
        Core.Scenario.conn Core.Scenario.Forward;
        Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse;
      ]
  in
  match (Core.Runner.effective_pipe oneway, Core.Runner.effective_pipe twoway) with
  | Some one, Some two ->
    Alcotest.(check bool) "one-way acks barely queue" true (one < 0.6);
    Alcotest.(check bool) "two-way acks queue substantially" true (two > 1.)
  | _ -> Alcotest.fail "expected effective pipes"

(* --- Randomized whole-system robustness -------------------------------- *)

let prop_random_scenarios_hold_invariants =
  (* Any small scenario must preserve the core invariants: sender/receiver
     agreement, link conservation, sane utilization. *)
  let gen =
    QCheck.Gen.(
      let* tau = oneofl [ 0.01; 0.1; 1.0 ] in
      let* buffer = int_range 4 40 in
      let* fwd = int_range 1 3 in
      let* rev = int_range 0 2 in
      let* reno = bool in
      let* delack = bool in
      return (tau, buffer, fwd, rev, reno, delack))
  in
  QCheck.Test.make ~name:"random scenarios keep system invariants" ~count:25
    (QCheck.make gen) (fun (tau, buffer, fwd, rev, reno, delack) ->
      let cc = Cc.spec (if reno then "reno" else "tahoe") in
      let conn dir = Core.Scenario.conn ~cc ~delayed_ack:delack dir in
      let scenario =
        Core.Scenario.make ~name:"random" ~tau ~buffer:(Some buffer)
          ~conns:
            (Core.Scenario.stagger ~step:0.9
               (List.init fwd (fun _ -> conn Core.Scenario.Forward)
               @ List.init rev (fun _ -> conn Core.Scenario.Reverse)))
          ~duration:80. ~warmup:30. ()
      in
      let r = Core.Runner.run scenario in
      let utils_ok =
        r.util_fwd >= 0. && r.util_fwd <= 1.0 +. 1e-9
        && r.util_bwd >= 0.
        && r.util_bwd <= 1.0 +. 1e-9
      in
      (* The receiver may be (boundedly) ahead of the sender: ACKs still in
         flight, or lost to a tiny reverse buffer.  It can never be behind. *)
      let agreement_ok =
        Array.for_all
          (fun (_spec, c) ->
            let snd = Sender.snd_una (Connection.sender c) in
            let rcv = Receiver.rcv_nxt (Connection.receiver c) in
            rcv >= snd && rcv - snd <= 64)
          r.conns
      in
      let conservation_ok =
        List.for_all
          (fun link ->
            let c = Link.counters link in
            c.Link.enq_data + c.Link.enq_ack
            = c.Link.dep_data + c.Link.dep_ack + Link.queue_length link)
          (Network.links r.dumbbell.Net.Topology.net)
      in
      let progress_ok =
        Array.for_all (fun (_spec, c) -> Connection.delivered c > 0) r.conns
      in
      utils_ok && agreement_ok && conservation_ok && progress_ok)

let suite =
  ( "flows and sojourn",
    [
      Alcotest.test_case "sized flow completes" `Quick test_flow_completes;
      Alcotest.test_case "flow completes despite losses" `Quick
        test_flow_completes_despite_losses;
      Alcotest.test_case "sender goes quiet" `Quick test_flow_sender_goes_quiet;
      Alcotest.test_case "infinite flow never completes" `Quick
        test_infinite_flow_never_completes;
      Alcotest.test_case "bad flow size" `Quick test_bad_flow_size;
      Alcotest.test_case "sojourn values" `Quick test_sojourn_values;
      Alcotest.test_case "sojourn of a packet queued before attach" `Quick
        test_sojourn_before_attach;
      Alcotest.test_case "effective pipe from acks" `Quick
        test_effective_pipe_from_acks;
      Alcotest.test_case "runner effective pipe" `Quick
        test_runner_effective_pipe;
      QCheck_alcotest.to_alcotest prop_random_scenarios_hold_invariants;
    ] )
