open Engine
open Net
open Tcp

(* Two hosts joined by one switch over effectively instant links, so a test
   can drive the receiver synchronously and collect its ACKs. *)
let harness ?(delayed_ack = false) () =
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
  let config =
    Config.make ~conn:1 ~src_host:h1 ~dst_host:h2 ~delayed_ack ()
  in
  let receiver = Receiver.create net config in
  let acks = ref [] in
  Network.register_endpoint net ~host:h1 ~conn:1 (fun p ->
      acks := p.Packet.seq :: !acks);
  let data seq =
    {
      Packet.id = seq;
      conn = 1;
      kind = Packet.Data;
      seq;
      size = 500;
      src = h1;
      dst = h2;
      retransmit = false;
    }
  in
  let collected () =
    Sim.run sim ~until:(Sim.now sim +. 1.);
    List.rev !acks
  in
  (sim, receiver, data, collected)

let test_in_order_acks () =
  let _, receiver, data, collected = harness () in
  List.iter (fun s -> Receiver.on_data receiver (data s)) [ 0; 1; 2 ];
  Alcotest.(check (list int)) "cumulative acks" [ 1; 2; 3 ] (collected ());
  Alcotest.(check int) "rcv_nxt" 3 (Receiver.rcv_nxt receiver);
  Alcotest.(check int) "no dups" 0 (Receiver.dup_acks_sent receiver)

let test_out_of_order_dup_acks () =
  let _, receiver, data, collected = harness () in
  Receiver.on_data receiver (data 0);
  (* 1 is lost; 2, 3, 4 arrive: three duplicate ACKs of 1 *)
  List.iter (fun s -> Receiver.on_data receiver (data s)) [ 2; 3; 4 ];
  Alcotest.(check (list int)) "dup acks" [ 1; 1; 1; 1 ] (collected ());
  Alcotest.(check int) "dup acks counted" 3 (Receiver.dup_acks_sent receiver);
  Alcotest.(check int) "buffered above hole" 3 (Receiver.buffered receiver);
  Alcotest.(check int) "out of order counted" 3 (Receiver.out_of_order receiver)

let test_hole_fill_jumps () =
  let _, receiver, data, collected = harness () in
  Receiver.on_data receiver (data 0);
  List.iter (fun s -> Receiver.on_data receiver (data s)) [ 2; 3; 4 ];
  (* the retransmission fills the hole: cumulative ACK jumps to 5 *)
  Receiver.on_data receiver (data 1);
  let acks = collected () in
  Alcotest.(check int) "last ack jumps" 5 (List.nth acks (List.length acks - 1));
  Alcotest.(check int) "nothing buffered" 0 (Receiver.buffered receiver)

let test_duplicate_data () =
  let _, receiver, data, collected = harness () in
  Receiver.on_data receiver (data 0);
  Receiver.on_data receiver (data 0);
  Alcotest.(check (list int)) "dup ack for old data" [ 1; 1 ] (collected ());
  Alcotest.(check int) "duplicate counted" 1 (Receiver.duplicates receiver)

let test_delayed_ack_combining () =
  let _, receiver, data, collected = harness ~delayed_ack:true () in
  (* First packet: ACK withheld.  Second: one combined ACK. *)
  Receiver.on_data receiver (data 0);
  Receiver.on_data receiver (data 1);
  Alcotest.(check (list int)) "one ACK covers two packets" [ 2 ] (collected ())

let test_delayed_ack_timer () =
  let sim, receiver, data, _ = harness ~delayed_ack:true () in
  Receiver.on_data receiver (data 0);
  (* No second packet: the conservative timer must release the ACK. *)
  Sim.run sim ~until:1.;
  Alcotest.(check int) "ack eventually sent" 1 (Receiver.acks_sent receiver)

let test_delayed_ack_out_of_order_immediate () =
  let _, receiver, data, collected = harness ~delayed_ack:true () in
  Receiver.on_data receiver (data 0);
  (* out-of-order arrival flushes + acks immediately, even with the option *)
  Receiver.on_data receiver (data 2);
  Alcotest.(check bool) "immediate dup ack" true (List.mem 1 (collected ()))

let prop_rcv_nxt_monotone =
  QCheck.Test.make ~name:"rcv_nxt is monotone under any arrival order"
    ~count:100
    QCheck.(list (int_range 0 20))
    (fun seqs ->
      let _, receiver, data, _ = harness () in
      let ok = ref true in
      List.iter
        (fun s ->
          let before = Receiver.rcv_nxt receiver in
          Receiver.on_data receiver (data s);
          if Receiver.rcv_nxt receiver < before then ok := false)
        seqs;
      !ok)

let prop_cumulative_correct =
  (* After any permutation of 0..n-1 arrives, rcv_nxt = n. *)
  QCheck.Test.make ~name:"cumulative delivery after a full permutation"
    ~count:100
    QCheck.(int_range 1 30)
    (fun n ->
      let _, receiver, data, _ = harness () in
      let seqs = List.init n (fun i -> (((i * 7) + 3) mod n, i)) in
      let shuffled = List.sort compare seqs |> List.map snd in
      List.iter (fun s -> Receiver.on_data receiver (data s)) shuffled;
      Receiver.rcv_nxt receiver = n)

let prop_buffered_bounded =
  (* Whatever arrives, the hold-back buffer only contains packets above
     rcv_nxt, and acks always carry rcv_nxt. *)
  QCheck.Test.make ~name:"receiver buffer stays above the cumulative point"
    ~count:100
    QCheck.(list (int_range 0 25))
    (fun seqs ->
      let _, receiver, data, _ = harness () in
      List.iter (fun s -> Receiver.on_data receiver (data s)) seqs;
      let rcv = Receiver.rcv_nxt receiver in
      let distinct =
        List.sort_uniq compare (List.filter (fun s -> s >= rcv) seqs)
      in
      Receiver.buffered receiver <= List.length distinct
      && rcv <= List.length (List.sort_uniq compare seqs))

let suite =
  ( "receiver",
    [
      Alcotest.test_case "in-order acks" `Quick test_in_order_acks;
      Alcotest.test_case "out-of-order dup acks" `Quick
        test_out_of_order_dup_acks;
      Alcotest.test_case "hole fill jumps" `Quick test_hole_fill_jumps;
      Alcotest.test_case "duplicate data" `Quick test_duplicate_data;
      Alcotest.test_case "delayed ack combining" `Quick
        test_delayed_ack_combining;
      Alcotest.test_case "delayed ack timer" `Quick test_delayed_ack_timer;
      Alcotest.test_case "delayed ack ooo immediate" `Quick
        test_delayed_ack_out_of_order_immediate;
      QCheck_alcotest.to_alcotest prop_rcv_nxt_monotone;
      QCheck_alcotest.to_alcotest prop_cumulative_correct;
      QCheck_alcotest.to_alcotest prop_buffered_bounded;
    ] )
