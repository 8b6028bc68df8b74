(* Quickstart: simulate one TCP Tahoe connection over the paper's dumbbell
   (Figure 1) and look at what the library gives you back.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A scenario = bottleneck parameters + connections + measurement window.
     One connection sending Host-1 -> Host-2, one-second propagation delay
     (pipe of 12.5 packets), a 20-packet drop-tail buffer. *)
  let scenario =
    Core.Scenario.make ~name:"quickstart" ~tau:1.0 ~buffer:(Some 20)
      ~conns:[ Core.Scenario.conn Core.Scenario.Forward ]
      ~duration:300. ~warmup:100. ()
  in
  Printf.printf "pipe size P = %.3g packets, data tx time = %.0f ms\n"
    (Core.Scenario.pipe scenario)
    (1000. *. Core.Scenario.data_tx);

  (* Build the network, run to completion, and keep the cwnd log as
     well as the queue series and drops every run records. *)
  let r = Core.Runner.run ~logs:[ Cwnd ] scenario in

  (* Throughput and utilization over the post-warm-up window. *)
  Printf.printf "bottleneck utilization: %.1f%%\n" (100. *. r.util_fwd);
  Printf.printf "goodput: %.2f packets/s (bottleneck capacity is 12.5)\n"
    (Core.Runner.goodput r 0);

  (* The sender's internals are inspectable. *)
  let _, conn = r.conns.(0) in
  let sender = Tcp.Connection.sender conn in
  Printf.printf "cwnd %.1f, ssthresh %.1f, %d retransmits, %d timeouts\n"
    (Tcp.Sender.cwnd sender)
    (Tcp.Sender.ssthresh sender)
    (Tcp.Sender.retransmits sender)
    (Tcp.Sender.timeouts sender);

  (* Losses come in congestion epochs: cwnd climbs until the buffer
     overflows, one packet is lost, cwnd collapses, repeat. *)
  let epochs = Core.Runner.epochs r in
  Printf.printf "congestion epochs in window: %d\n" (List.length epochs);
  List.iteri
    (fun i e ->
      Printf.printf "  epoch %d at t=%.1fs: %d drop(s)\n" (i + 1)
        e.Analysis.Epochs.start
        (Analysis.Epochs.total_drops e))
    epochs;

  (* And the classic sawtooth, as the paper plots it. *)
  print_newline ();
  print_endline "congestion window (packets):";
  print_string
    (Core.Ascii_plot.render ~width:76 ~height:12
       (Trace.Cwnd_trace.cwnd r.cwnds.(0))
       ~t0:r.t0 ~t1:r.t1);
  print_newline ();
  print_endline "queue at switch 1 (packets):";
  print_string
    (Core.Ascii_plot.render ~width:76 ~height:12
       (Trace.Queue_trace.series r.q1)
       ~t0:r.t0 ~t1:r.t1)
