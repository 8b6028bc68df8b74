open Engine
open Net
open Tcp

(* Drive a sender directly: capture its data packets at the destination
   host and inject hand-crafted ACKs. *)
let harness ?(rto_params = Rto.default_params) () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let sw = Network.add_switch net ~name:"sw" in
  let h1 = Network.add_host net ~name:"h1" ~proc_delay:0. in
  let h2 = Network.add_host net ~name:"h2" ~proc_delay:0. in
  ignore
    (Network.add_duplex net ~src:h1 ~dst:sw ~bandwidth:1e9 ~prop_delay:1e-6
       ~buffer:None
      : Link.t * Link.t);
  ignore
    (Network.add_duplex net ~src:h2 ~dst:sw ~bandwidth:1e9 ~prop_delay:1e-6
       ~buffer:None
      : Link.t * Link.t);
  Routing.compute net;
  let config = Config.make ~conn:1 ~src_host:h1 ~dst_host:h2 ~rto_params () in
  let sender = Sender.create net config in
  let received = ref [] in
  Network.register_endpoint net ~host:h2 ~conn:1 (fun p ->
      received := (p.Packet.seq, p.Packet.retransmit) :: !received);
  let flush () = Sim.run sim ~until:(Sim.now sim +. 0.01) in
  let ack ackno =
    Sender.on_ack sender
      {
        Packet.id = 0;
        conn = 1;
        kind = Packet.Ack;
        seq = ackno;
        size = 50;
        src = h2;
        dst = h1;
        retransmit = false;
      };
    flush ()
  in
  (sim, sender, ack, flush, received)

(* [received] is newest-first; rev_map restores arrival order. *)
let seqs received = List.rev_map fst !received

let test_initial_window () =
  let _, sender, _, flush, received = harness () in
  Sender.start sender;
  flush ();
  Alcotest.(check (list int)) "slow start sends one packet" [ 0 ] (seqs received);
  Alcotest.(check int) "snd_nxt" 1 (Sender.snd_nxt sender);
  Alcotest.(check int) "outstanding" 1 (Sender.outstanding sender)

let test_slow_start_growth () =
  let _, sender, ack, flush, received = harness () in
  Sender.start sender;
  flush ();
  ack 1;
  (* cwnd 2: sends 1, 2 *)
  Alcotest.(check (list int)) "two new packets" [ 0; 1; 2 ] (seqs received);
  ack 2;
  ack 3;
  (* each ack grows cwnd by 1 and slides the window *)
  Alcotest.(check int) "cwnd" 4 (Tcp.Cc.window (Sender.cc sender));
  Alcotest.(check int) "outstanding equals window" 4 (Sender.outstanding sender)

let test_fast_retransmit_at_three_dups () =
  let _, sender, ack, flush, received = harness () in
  Sender.start sender;
  flush ();
  (* grow to a window of several packets *)
  ack 1;
  ack 2;
  ack 3;
  received := [];
  ack 3;
  (* dup 1 *)
  ack 3;
  (* dup 2 *)
  Alcotest.(check (list int)) "no retransmit below threshold" [] (seqs received);
  ack 3;
  (* dup 3: fast retransmit of exactly the missing packet *)
  (match !received with
   | [ (seq, retransmit) ] ->
     Alcotest.(check int) "retransmits the hole" 3 seq;
     Alcotest.(check bool) "marked retransmission" true retransmit
   | other ->
     Alcotest.failf "expected exactly one retransmission, got %d"
       (List.length other));
  Alcotest.(check int) "fast retransmit counted" 1
    (Sender.fast_retransmits sender);
  Alcotest.(check (float 0.)) "cwnd collapsed" 1. (Sender.cwnd sender);
  received := [];
  ack 3;
  (* a 4th duplicate must NOT trigger another retransmission *)
  Alcotest.(check (list int)) "no livelock retrigger" [] (seqs received)

let test_recovery_after_fast_retransmit () =
  let _, sender, ack, flush, received = harness () in
  Sender.start sender;
  flush ();
  ack 1;
  ack 2;
  ack 3;
  (* window is 4: packets 3,4,5,6 outstanding *)
  ack 3;
  ack 3;
  ack 3;
  received := [];
  (* the retransmission fills the hole; receiver had 4,5,6 buffered *)
  ack 7;
  (* snd_nxt must jump past everything already sent; only new data goes out *)
  Alcotest.(check bool) "only new sequence numbers" true
    (List.for_all (fun s -> s >= 7) (seqs received));
  Alcotest.(check int) "snd_una advanced" 7 (Sender.snd_una sender)

let test_timeout_go_back_n () =
  let sim, sender, _, flush, received = harness () in
  Sender.start sender;
  flush ();
  received := [];
  (* No ACK ever comes: the retransmission timer fires and resends seq 0. *)
  Sim.run sim ~until:10.;
  Alcotest.(check bool) "timeout occurred" true (Sender.timeouts sender >= 1);
  Alcotest.(check bool) "seq 0 retransmitted" true
    (List.exists (fun (s, r) -> s = 0 && r) !received)

let test_rto_backoff_on_repeated_timeouts () =
  let sim, sender, _, flush, _ = harness () in
  Sender.start sender;
  flush ();
  (* run long enough for several timeouts *)
  Sim.run sim ~until:30.;
  Alcotest.(check bool) "several timeouts" true (Sender.timeouts sender >= 2);
  Alcotest.(check bool) "backoff grew" true
    (Rto.backoff_count (Sender.rto sender) >= 2)

let test_karn_no_sample_across_retransmit () =
  let sim, sender, ack, flush, _ = harness () in
  Sender.start sender;
  flush ();
  (* force a timeout, then ack the retransmission quickly: no RTT sample
     may be taken from it *)
  Sim.run sim ~until:4.;
  Alcotest.(check bool) "timed out" true (Sender.timeouts sender >= 1);
  let samples_before = Rto.samples (Sender.rto sender) in
  ack 1;
  Alcotest.(check int) "no sample from retransmitted segment" samples_before
    (Rto.samples (Sender.rto sender))

let test_rtt_sampling_on_clean_exchange () =
  let _, sender, ack, flush, _ = harness () in
  Sender.start sender;
  flush ();
  ack 1;
  Alcotest.(check bool) "first clean ACK gives a sample" true
    (Rto.samples (Sender.rto sender) >= 1)

let test_stale_ack_ignored () =
  let _, sender, ack, flush, _ = harness () in
  Sender.start sender;
  flush ();
  ack 1;
  ack 2;
  let una = Sender.snd_una sender in
  ack 1;
  (* stale: below snd_una *)
  Alcotest.(check int) "stale ack ignored" una (Sender.snd_una sender)

let test_cwnd_hook_fires () =
  let _, sender, ack, flush, _ = harness () in
  let events = ref 0 in
  Sender.on_cwnd sender (fun ~cwnd:_ ~ssthresh:_ -> incr events);
  Sender.start sender;
  flush ();
  ack 1;
  ack 2;
  Alcotest.(check int) "one event per window change" 2 !events

let test_loss_hook_reason () =
  let _, sender, ack, flush, _ = harness () in
  let reasons = ref [] in
  Sender.on_loss sender (fun reason -> reasons := reason :: !reasons);
  Sender.start sender;
  flush ();
  ack 1;
  ack 2;
  ack 3;
  ack 3;
  ack 3;
  ack 3;
  Alcotest.(check bool) "dup-ack loss reported" true
    (List.mem Cc.Fast_retransmit !reasons)

let prop_adversarial_acks =
  (* Any ACK sequence — stale, duplicate, far-future — must leave the
     sender's invariants intact. *)
  QCheck.Test.make ~name:"sender survives adversarial ACK sequences" ~count:100
    QCheck.(list (int_range 0 60))
    (fun acks ->
      let _, sender, ack, flush, _ = harness () in
      Sender.start sender;
      flush ();
      List.iter ack acks;
      Sender.snd_una sender <= Sender.snd_nxt sender
      && Sender.outstanding sender >= 0
      && Sender.cwnd sender >= 1.
      && Sender.ssthresh sender >= 2.)

let suite =
  ( "sender",
    [
      Alcotest.test_case "initial window" `Quick test_initial_window;
      Alcotest.test_case "slow start growth" `Quick test_slow_start_growth;
      Alcotest.test_case "fast retransmit at 3 dups" `Quick
        test_fast_retransmit_at_three_dups;
      Alcotest.test_case "recovery after fast retransmit" `Quick
        test_recovery_after_fast_retransmit;
      Alcotest.test_case "timeout go-back-N" `Quick test_timeout_go_back_n;
      Alcotest.test_case "rto backoff" `Quick test_rto_backoff_on_repeated_timeouts;
      Alcotest.test_case "karn rule" `Quick test_karn_no_sample_across_retransmit;
      Alcotest.test_case "rtt sampling" `Quick test_rtt_sampling_on_clean_exchange;
      Alcotest.test_case "stale ack ignored" `Quick test_stale_ack_ignored;
      Alcotest.test_case "cwnd hook" `Quick test_cwnd_hook_fires;
      Alcotest.test_case "loss hook reason" `Quick test_loss_hook_reason;
      QCheck_alcotest.to_alcotest prop_adversarial_acks;
    ] )
