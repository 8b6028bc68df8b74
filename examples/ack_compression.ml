(* ACK-compression, isolated (paper 4.2, Figures 8-9).

   Congestion control is disentangled from two-way queueing by fixing the
   windows (30 and 25 packets) and making the buffers infinite.  A cluster
   of ACKs caught behind data drains at the ACK transmission rate — 10x
   faster than the data rate that produced it — so the ACK clock breaks
   and the queues swing in constant-amplitude square waves.

   Run with:  dune exec examples/ack_compression.exe *)

let () =
  let scenario =
    Core.Experiments.scenario_fixed ~tau:0.01 ~w1:30 ~w2:25 ()
  in
  let r = Core.Runner.run scenario in
  Printf.printf
    "fixed windows 30/25, tau=0.01s (P=%.3g), infinite buffers\n\n"
    (Core.Scenario.pipe scenario);

  (* The broken ACK clock, measured: consecutive ACKs of one connection
     should be spaced by a data transmission time (80 ms) if the clock
     held; compression squeezes them to the ACK transmission time (8 ms). *)
  let data_tx = Core.Scenario.data_tx in
  (match
     Analysis.Ackcomp.ack_spacing
       (Trace.Dep_log.in_window r.dep_fwd ~t0:r.t0 ~t1:r.t1)
       ~data_tx
   with
   | Some sp ->
     Printf.printf
       "ACK spacing at the bottleneck: median %.1f ms vs %.0f ms data tx \
        (ratio %.2f; %.0f%% of ACK pairs compressed, %d samples)\n"
       (1000. *. sp.Analysis.Ackcomp.median_gap)
       (1000. *. data_tx) sp.Analysis.Ackcomp.ratio
       (100. *. sp.Analysis.Ackcomp.compressed_fraction)
       sp.Analysis.Ackcomp.samples
   | None -> print_endline "no consecutive ACK pairs observed");

  (* The queue consequences: Q1 absorbs every packet of both connections
     (peak = w1 + w2 = 55) while Q2 peaks at ~23, and the line behind the
     smaller queue idles ~14% of the time even though both windows dwarf
     the pipe. *)
  let peak qt =
    match
      Trace.Series.min_max (Trace.Queue_trace.series qt) ~t0:r.t0 ~t1:r.t1
    with
    | Some (lo, hi) -> (lo, hi)
    | None -> (0., 0.)
  in
  let q1_lo, q1_hi = peak r.q1 and q2_lo, q2_hi = peak r.q2 in
  Printf.printf "Q1 swings %.0f..%.0f packets; Q2 swings %.0f..%.0f\n" q1_lo
    q1_hi q2_lo q2_hi;
  Printf.printf "line utilizations: %.1f%% and %.1f%%\n\n" (100. *. r.util_fwd)
    (100. *. r.util_bwd);

  print_endline "one cycle of the square wave (2.5 s of queue history):";
  let t1 = r.t1 in
  let t0 = t1 -. 2.5 in
  print_endline "queue at switch 1:";
  print_string
    (Core.Ascii_plot.render ~width:76 ~height:12 ~y_max:60.
       (Trace.Queue_trace.series r.q1)
       ~t0 ~t1);
  print_endline "queue at switch 2:";
  print_string
    (Core.Ascii_plot.render ~width:76 ~height:12 ~y_max:60.
       (Trace.Queue_trace.series r.q2)
       ~t0 ~t1);

  (* The chronology of 4.2, stepped through on the departure log: runs of
     same-connection packets show the clusters that make compression
     possible in the first place. *)
  print_endline "departure clusters on the switch-1 bottleneck (last 2.5 s):";
  let records = Trace.Dep_log.in_window r.dep_fwd ~t0 ~t1 in
  let runs = Analysis.Clustering.run_lengths records in
  Printf.printf "  cluster sizes: %s\n"
    (String.concat ", " (List.map string_of_int runs));
  (match Analysis.Clustering.coefficient records with
   | Some c ->
     Printf.printf "  clustering coefficient %.2f (1.0 = complete clustering)\n" c
   | None -> ());

  (* And the five-step chronology itself, recovered from the traces: the
     paper's numbered narrative of one cycle (4.2). *)
  print_newline ();
  print_endline "the 4.2 chronology, reconstructed (one cycle):";
  let phases =
    Analysis.Chronology.phases
      (Trace.Queue_trace.series r.q1)
      (Trace.Queue_trace.series r.q2)
      ~t0 ~t1
  in
  Format.printf "%a" Analysis.Chronology.pp phases;
  match Analysis.Chronology.opposition phases with
  | Some f ->
    Printf.printf
      "every burst one queue absorbs is the other queue's drained ACK \
       cluster: opposition %.2f\n"
      f
  | None -> ()
