(* The paper horizon: 600 s simulated, the first 200 s excluded. *)
let duration = 600.
let warmup = 200.

let fmt = Printf.sprintf

let pct x = fmt "%.1f%%" (100. *. x)

let opt_f = function Some v -> fmt "%.2f" v | None -> "n/a"

(* ------------------------------------------------------------------ *)
(* Scenario constructors                                               *)
(* ------------------------------------------------------------------ *)

let scenario_fig2 =
  Scenario.make ~name:"fig2" ~tau:1.0 ~buffer:(Some 20)
    ~conns:
      (Scenario.stagger ~step:1.0
         [
           Scenario.conn Scenario.Forward;
           Scenario.conn Scenario.Forward;
           Scenario.conn Scenario.Forward;
         ])
    ~duration ~warmup ()

let scenario_oneway_small_pipe =
  Scenario.make ~name:"oneway-small-pipe" ~tau:0.01 ~buffer:(Some 20)
    ~conns:
      (Scenario.stagger ~step:1.0
         [
           Scenario.conn Scenario.Forward;
           Scenario.conn Scenario.Forward;
           Scenario.conn Scenario.Forward;
         ])
    ~duration ~warmup ()

let scenario_fig3 ?(buffer = 30) () =
  let one dir = Scenario.conn dir in
  Scenario.make ~name:"fig3" ~tau:0.01 ~buffer:(Some buffer)
    ~conns:
      (Scenario.stagger ~step:0.7
         (List.init 10 (fun i ->
              one (if i < 5 then Scenario.Forward else Scenario.Reverse))))
    ~duration ~warmup ()

let scenario_fig45 =
  Scenario.make ~name:"fig45" ~tau:0.01 ~buffer:(Some 20)
    ~conns:
      (Scenario.stagger ~step:1.0
         [ Scenario.conn Scenario.Forward; Scenario.conn Scenario.Reverse ])
    ~duration ~warmup ()

let scenario_fig67 =
  Scenario.make ~name:"fig67" ~tau:1.0 ~buffer:(Some 20)
    ~conns:
      (Scenario.stagger ~step:1.0
         [ Scenario.conn Scenario.Forward; Scenario.conn Scenario.Reverse ])
    ~duration ~warmup ()

let scenario_fixed ?(ack_size = 50) ~tau ~w1 ~w2 () =
  Scenario.make
    ~name:(fmt "fixed-w%d-w%d" w1 w2)
    ~tau ~buffer:None
    ~conns:(Scenario.fixed_pair ~ack_size ~buffer:None ~w1 ~w2 ())
    ~duration:400. ~warmup:150. ~sample_dt:0.05 ()

(* A TAB-UTIL row.  Larger buffers stretch the two-way window
   increase-decrease cycle (the paper: cycle length grows with B), so
   big-buffer two-way runs get proportionally more simulated time
   before measuring. *)
let scenario_buffer ~two_way ~buffer =
  if two_way then
    let scale = float_of_int (max 1 (buffer / 20)) in
    Scenario.make ~name:(fmt "buf-twoway-%d" buffer) ~tau:0.01
      ~buffer:(Some buffer)
      ~conns:
        (Scenario.stagger ~step:1.0
           [ Scenario.conn Scenario.Forward; Scenario.conn Scenario.Reverse ])
      ~duration:(duration *. scale) ~warmup:(warmup *. scale) ()
  else
    Scenario.make ~name:(fmt "buf-oneway-%d" buffer) ~tau:1.0
      ~buffer:(Some buffer)
      ~conns:
        (Scenario.stagger ~step:1.0
           (List.init 3 (fun _ -> Scenario.conn Scenario.Forward)))
      ~duration ~warmup ()

type figure = {
  fig : string;
  caption : string;
  scenario : Scenario.t;
}

let figures =
  let fixed ~tau = scenario_fixed ~tau ~w1:30 ~w2:25 () in
  [
    { fig = "fig2"; caption = "Figure 2: one-way, 3 connections, tau=1s";
      scenario = scenario_fig2 };
    { fig = "fig3"; caption = "Figure 3: two-way, 5+5 connections, tau=0.01s";
      scenario = scenario_fig3 () };
    { fig = "fig45";
      caption = "Figures 4-5: two-way, 1+1, tau=0.01s (out-of-phase)";
      scenario = scenario_fig45 };
    { fig = "fig67"; caption = "Figures 6-7: two-way, 1+1, tau=1s (in-phase)";
      scenario = scenario_fig67 };
    { fig = "fig8"; caption = "Figure 8: fixed windows 30/25, tau=0.01s";
      scenario = fixed ~tau:0.01 };
    { fig = "fig9"; caption = "Figure 9: fixed windows 30/25, tau=1s";
      scenario = fixed ~tau:1.0 };
  ]

(* ------------------------------------------------------------------ *)
(* Shared measurement helpers                                          *)
(* ------------------------------------------------------------------ *)

let epoch_period epochs =
  match epochs with
  | first :: (_ :: _ as rest) ->
    let last = List.nth rest (List.length rest - 1) in
    Some
      ((last.Analysis.Epochs.start -. first.Analysis.Epochs.start)
      /. float_of_int (List.length rest))
  | _ -> None

let data_clustering (r : Runner.result) dep =
  Analysis.Clustering.coefficient
    (Analysis.Clustering.data_only (Trace.Dep_log.in_window dep ~t0:r.t0 ~t1:r.t1))

let ack_compression (r : Runner.result) dep =
  Analysis.Ackcomp.ack_spacing
    (Trace.Dep_log.in_window dep ~t0:r.t0 ~t1:r.t1)
    ~data_tx:Scenario.data_tx

(* ACK clusters ride whichever direction the currently-large window's ACKs
   take; measure both bottleneck directions and report the stronger
   compression. *)
let ack_compression_both (r : Runner.result) =
  let pick a b =
    match (a, b) with
    | Some x, Some y ->
      Some (if x.Analysis.Ackcomp.ratio <= y.Analysis.Ackcomp.ratio then x else y)
    | (Some _ as x), None | None, (Some _ as x) -> x
    | None, None -> None
  in
  pick (ack_compression r r.dep_fwd) (ack_compression r r.dep_bwd)

(* Cluster sizes on a link counting both the data packets and the reverse
   connection's ACKs (each simplex bottleneck link carries one connection's
   data interleaved with the other's ACK clusters). *)
let mixed_cluster_length (r : Runner.result) dep =
  Option.value ~default:0.
    (Analysis.Clustering.mean_run_length
       (Trace.Dep_log.in_window dep ~t0:r.t0 ~t1:r.t1))

let fluctuation (r : Runner.result) qt =
  Analysis.Ackcomp.fluctuation_rate
    (Trace.Queue_trace.series qt)
    ~t0:r.t0 ~t1:r.t1 ~window:(2. *. Scenario.data_tx) ~threshold:4.

(* ------------------------------------------------------------------ *)
(* FIG2: one-way baseline                                              *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  let r = Runner.run ~logs:[ Cwnd; Departures ] scenario_fig2 in
  let r_small = Runner.run scenario_oneway_small_pipe in
  let epochs = Runner.epochs r in
  let cwnd_phase_01, _ = Runner.cwnd_phase r 0 1 in
  let cwnd_phase_02, _ = Runner.cwnd_phase r 0 2 in
  let checks =
    [
      Report.in_band ~metric:"bottleneck utilization (tau=1s)" ~paper:"~90%"
        ~value:r.util_fwd ~lo:0.80 ~hi:0.97;
      Report.in_band ~metric:"bottleneck utilization (tau=0.01s)"
        ~paper:"~100%" ~value:r_small.util_fwd ~lo:0.97 ~hi:1.0;
      Report.in_band ~metric:"drops per congestion epoch"
        ~paper:"3 (= total acceleration)"
        ~value:(Option.value ~default:0. (Analysis.Epochs.mean_drops epochs))
        ~lo:2.4 ~hi:3.6;
      Report.in_band ~metric:"loss synchronization (all conns hit)"
        ~paper:"every epoch"
        ~value:
          (Option.value ~default:0.
             (Analysis.Epochs.loss_synchronization epochs ~conns:[ 1; 2; 3 ]))
        ~lo:0.75 ~hi:1.0;
      Report.expect ~metric:"window synchronization (conns 1,2)"
        ~paper:"in-phase"
        ~measured:(Analysis.Sync.phase_to_string cwnd_phase_01)
        (cwnd_phase_01 = Analysis.Sync.In_phase);
      Report.expect ~metric:"window synchronization (conns 1,3)"
        ~paper:"in-phase"
        ~measured:(Analysis.Sync.phase_to_string cwnd_phase_02)
        (cwnd_phase_02 = Analysis.Sync.In_phase);
      Report.in_band ~metric:"cwnd oscillation period (s)" ~paper:"~34 s"
        ~value:(Option.value ~default:0. (epoch_period epochs))
        ~lo:15. ~hi:60.;
      Report.in_band ~metric:"queue oscillation period, autocorrelation (s)"
        ~paper:"~34 s"
        ~value:
          (Option.value ~default:0.
             (Analysis.Period.estimate
                (Trace.Queue_trace.series r.q1)
                ~t0:r.t0 ~t1:r.t1 ~dt:0.5 ~max_period:100.))
        ~lo:15. ~hi:60.;
      Report.in_band ~metric:"data clustering coefficient"
        ~paper:"complete clustering (1.0 vs 0.33 interleaved)"
        ~value:(Option.value ~default:0. (data_clustering r r.dep_fwd))
        ~lo:0.85 ~hi:1.0;
      Report.info ~metric:"congestion epochs observed"
        ~paper:"oscillatory cycle"
        ~measured:(string_of_int (List.length epochs));
    ]
  in
  { Report.id = "FIG2"; title = "one-way traffic, 3 connections"; checks }

(* ------------------------------------------------------------------ *)
(* FIG3: ten connections, two-way                                      *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  let r = Runner.run ~logs:[ Departures ] (scenario_fig3 ()) in
  let r60 = Runner.run (scenario_fig3 ~buffer:60 ()) in
  let epochs = Runner.epochs ~gap:2. r in
  let drops = Runner.drops_in_window r in
  let data_frac =
    match drops with
    | [] -> 1.
    | _ ->
      let data =
        List.length
          (List.filter
             (fun (d : Trace.Drop_log.record) -> d.kind = Net.Packet.Data)
             drops)
      in
      float_of_int data /. float_of_int (List.length drops)
  in
  let qphase, qcorr = Runner.queue_phase r in
  let util = Float.max r.util_fwd r.util_bwd in
  let util60 = Float.max r60.util_fwd r60.util_bwd in
  let checks =
    [
      Report.in_band ~metric:"bottleneck utilization (B=30)" ~paper:"~91%"
        ~value:util ~lo:0.80 ~hi:0.98;
      Report.expect ~metric:"utilization with B=60"
        ~paper:"does not increase (drops to ~87%)"
        ~measured:(fmt "%s vs %s" (pct util60) (pct util))
        (util60 <= util +. 0.02);
      Report.in_band ~metric:"fraction of drops that are data packets"
        ~paper:"99.8%" ~value:data_frac ~lo:0.99 ~hi:1.0;
      Report.expect ~metric:"queue synchronization (Q1 vs Q2)"
        ~paper:"out-of-phase"
        ~measured:(fmt "%s (r=%.2f)" (Analysis.Sync.phase_to_string qphase) qcorr)
        (qphase = Analysis.Sync.Out_of_phase);
      Report.in_band ~metric:"drops per congestion epoch"
        ~paper:"~10 (= total acceleration)"
        ~value:(Option.value ~default:0. (Analysis.Epochs.mean_drops epochs))
        ~lo:4. ~hi:22.;
      Report.in_band ~metric:"rapid queue fluctuations (events/s)"
        ~paper:"fluctuations of ~5 pkts within a packet time"
        ~value:(fluctuation r r.q1) ~lo:0.3 ~hi:50.;
      Report.info ~metric:"mean data cluster length"
        ~paper:"partial clustering"
        ~measured:
          (opt_f
             (Analysis.Clustering.mean_run_length
                (Analysis.Clustering.data_only
                   (Trace.Dep_log.in_window r.dep_fwd ~t0:r.t0 ~t1:r.t1))));
      Report.info ~metric:"throughput fairness (Jain index)"
        ~paper:"n/a (5 cites testbed unfairness)"
        ~measured:
          (fmt "%.3f"
             (Analysis.Fairness.jain (Array.map float_of_int r.delivered)));
    ]
  in
  { Report.id = "FIG3"; title = "two-way traffic, 5+5 connections"; checks }

(* ------------------------------------------------------------------ *)
(* FIG4/5: two-way, small pipe: out-of-phase mode                      *)
(* ------------------------------------------------------------------ *)

let fig45 () =
  let r = Runner.run ~logs:[ Cwnd; Departures ] scenario_fig45 in
  let r60 = Runner.run (scenario_buffer ~two_way:true ~buffer:60) in
  let r120 = Runner.run (scenario_buffer ~two_way:true ~buffer:120) in
  let epochs = Runner.epochs r in
  let qphase, qcorr = Runner.queue_phase r in
  let cphase, ccorr = Runner.cwnd_phase r 0 1 in
  let util b = Float.max b.Runner.util_fwd b.Runner.util_bwd in
  let compression = ack_compression_both r in
  let checks =
    [
      Report.expect ~metric:"queue synchronization (Q1 vs Q2)"
        ~paper:"out-of-phase"
        ~measured:(fmt "%s (r=%.2f)" (Analysis.Sync.phase_to_string qphase) qcorr)
        (qphase = Analysis.Sync.Out_of_phase);
      Report.expect ~metric:"window synchronization (cwnd1 vs cwnd2)"
        ~paper:"out-of-phase"
        ~measured:(fmt "%s (r=%.2f)" (Analysis.Sync.phase_to_string cphase) ccorr)
        (cphase = Analysis.Sync.Out_of_phase);
      Report.in_band ~metric:"drops per congestion epoch"
        ~paper:"2 (= total acceleration)"
        ~value:(Option.value ~default:0. (Analysis.Epochs.mean_drops epochs))
        ~lo:1.5 ~hi:2.5;
      Report.in_band ~metric:"epochs where one conn takes all drops"
        ~paper:"always (double drop, other unscathed)"
        ~value:
          (Option.value ~default:0. (Analysis.Epochs.single_loser_fraction epochs))
        ~lo:0.85 ~hi:1.0;
      Report.in_band ~metric:"loser alternation between epochs"
        ~paper:"roles reverse every epoch"
        ~value:(Option.value ~default:0. (Analysis.Epochs.alternation epochs))
        ~lo:0.85 ~hi:1.0;
      Report.in_band ~metric:"bottleneck utilization (B=20)" ~paper:"~70%"
        ~value:(util r) ~lo:0.55 ~hi:0.85;
      Report.expect ~metric:"utilization with B=60 and B=120"
        ~paper:"stays ~70% (no benefit from buffers)"
        ~measured:(fmt "%s, %s" (pct (util r60)) (pct (util r120)))
        (Float.abs (util r60 -. util r) <= 0.12
        && Float.abs (util r120 -. util r) <= 0.12);
      Report.in_band ~metric:"compressed ACK pairs (fraction)"
        ~paper:"ACK clusters drain at ACK tx rate (10x compression)"
        ~value:
          (match compression with
           | Some c -> c.Analysis.Ackcomp.compressed_fraction
           | None -> 0.)
        ~lo:0.05 ~hi:1.0;
      Report.in_band ~metric:"rapid queue fluctuations (events/s)"
        ~paper:"square-wave oscillations"
        ~value:(fluctuation r r.q1) ~lo:0.2 ~hi:50.;
      (let period =
         Analysis.Period.estimate
           (Trace.Queue_trace.series r.q1)
           ~t0:r.t0 ~t1:r.t1 ~dt:0.5 ~max_period:60.
       in
       let lag =
         Analysis.Sync.lag
           (Trace.Queue_trace.series r.q1)
           (Trace.Queue_trace.series r.q2)
           ~t0:r.t0 ~t1:r.t1 ~dt:0.5 ~max_lag:40.
       in
       match (period, lag) with
       | Some p, Some (l, _) when p > 0. ->
         Report.in_band ~metric:"queue lag / cycle length"
           ~paper:"one queue peaks while the other bottoms (lag = half cycle)"
           ~value:(Float.abs l /. p) ~lo:0.3 ~hi:0.7
       | _ ->
         Report.info ~metric:"queue lag / cycle length"
           ~paper:"one queue peaks while the other bottoms"
           ~measured:"not measurable on this window");
      (let acks_dropped =
         List.length
           (List.filter
              (fun (d : Trace.Drop_log.record) -> d.kind = Net.Packet.Ack)
              (Trace.Drop_log.records r.drops))
       in
       Report.expect ~metric:"ACK packets dropped"
         ~paper:"never (an ACK always follows a departure, 4.2)"
         ~measured:(string_of_int acks_dropped)
         (acks_dropped = 0));
      (let floored trace =
         match
           Trace.Series.min_max (Trace.Cwnd_trace.ssthresh trace) ~t0:r.t0
             ~t1:r.t1
         with
         | Some (lo, _) -> lo = 2.
         | None -> false
       in
       Report.expect ~metric:"ssthresh floored at 2 after the double loss"
         ~paper:"the second loss finds cwnd still 1 (footnote 9)"
         ~measured:
           (fmt "conn1 %b, conn2 %b" (floored r.cwnds.(0)) (floored r.cwnds.(1)))
         (floored r.cwnds.(0) && floored r.cwnds.(1)));
    ]
  in
  {
    Report.id = "FIG4/5";
    title = "two-way traffic, small pipe (tau=0.01s): out-of-phase mode";
    checks;
  }

(* ------------------------------------------------------------------ *)
(* FIG6/7: two-way, large pipe: in-phase mode                          *)
(* ------------------------------------------------------------------ *)

let fig67 () =
  let r = Runner.run ~logs:[ Cwnd ] scenario_fig67 in
  let epochs = Runner.epochs r in
  let qphase, qcorr = Runner.queue_phase r in
  let cphase, ccorr = Runner.cwnd_phase r 0 1 in
  let both_lose =
    Option.value ~default:0.
      (Analysis.Epochs.loss_synchronization epochs ~conns:[ 1; 2 ])
  in
  let checks =
    [
      Report.expect ~metric:"queue synchronization (Q1 vs Q2)"
        ~paper:"in-phase"
        ~measured:(fmt "%s (r=%.2f)" (Analysis.Sync.phase_to_string qphase) qcorr)
        (qphase = Analysis.Sync.In_phase);
      Report.expect ~metric:"window synchronization (cwnd1 vs cwnd2)"
        ~paper:"in-phase"
        ~measured:(fmt "%s (r=%.2f)" (Analysis.Sync.phase_to_string cphase) ccorr)
        (cphase = Analysis.Sync.In_phase);
      Report.in_band ~metric:"drops per congestion epoch"
        ~paper:"2 (one per connection)"
        ~value:(Option.value ~default:0. (Analysis.Epochs.mean_drops epochs))
        ~lo:1.5 ~hi:2.6;
      Report.in_band ~metric:"epochs where both connections lose"
        ~paper:"every epoch (single drop each)" ~value:both_lose ~lo:0.7 ~hi:1.0;
      Report.in_band ~metric:"bottleneck utilization" ~paper:"~60%"
        ~value:(Float.max r.util_fwd r.util_bwd)
        ~lo:0.45 ~hi:0.78;
      Report.expect ~metric:"both lines idle at times"
        ~paper:"yes (unlike the small-pipe case)"
        ~measured:(fmt "%s / %s" (pct r.util_fwd) (pct r.util_bwd))
        (r.util_fwd < 0.95 && r.util_bwd < 0.95);
    ]
  in
  {
    Report.id = "FIG6/7";
    title = "two-way traffic, large pipe (tau=1s): in-phase mode";
    checks;
  }

(* ------------------------------------------------------------------ *)
(* FIG8/9: fixed windows                                               *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  let r =
    Runner.run ~logs:[ Departures ] (scenario_fixed ~tau:0.01 ~w1:30 ~w2:25 ())
  in
  let q1_max = Runner.queue_peak r r.q1 in
  let q2_max = Runner.queue_peak r r.q2 in
  let compression = ack_compression r r.dep_fwd in
  let checks =
    [
      Report.in_band ~metric:"Q1 maximum (packets)" ~paper:"55 (= w1 + w2)"
        ~value:q1_max ~lo:52. ~hi:56.;
      Report.in_band ~metric:"Q2 maximum (packets)" ~paper:"~23" ~value:q2_max
        ~lo:19. ~hi:27.;
      Report.expect ~metric:"queue maxima differ" ~paper:"different heights"
        ~measured:(fmt "%.0f vs %.0f" q1_max q2_max)
        (q1_max -. q2_max >= 10.);
      Report.in_band ~metric:"underutilized line" ~paper:"86%"
        ~value:(Float.min r.util_fwd r.util_bwd)
        ~lo:0.80 ~hi:0.92;
      Report.in_band ~metric:"other line" ~paper:"fully utilized"
        ~value:(Float.max r.util_fwd r.util_bwd)
        ~lo:0.99 ~hi:1.0;
      Report.in_band ~metric:"ACK spacing vs data tx time" ~paper:"ratio 0.1"
        ~value:
          (match compression with Some c -> c.Analysis.Ackcomp.ratio | None -> 1.)
        ~lo:0.05 ~hi:0.3;
      (let slopes =
         Analysis.Ackcomp.edge_slopes
           (Trace.Queue_trace.series r.q1)
           ~t0:r.t0 ~t1:r.t1 ~min_rise:8.
       in
       Report.in_band ~metric:"square-wave rising edge (pkts/s)"
         ~paper:"bursts hit the queue at the compressed-ACK rate (R_A = 125/s)"
         ~value:(Option.value ~default:0. slopes.Analysis.Ackcomp.rising)
         ~lo:90. ~hi:170.);
      (let slopes =
         Analysis.Ackcomp.edge_slopes
           (Trace.Queue_trace.series r.q1)
           ~t0:r.t0 ~t1:r.t1 ~min_rise:8.
       in
       Report.in_band ~metric:"square-wave falling edge (pkts/s)"
         ~paper:"ACK clusters drain at R_A, not R_D"
         ~value:(Option.value ~default:0. slopes.Analysis.Ackcomp.falling)
         ~lo:(-170.) ~hi:(-90.));
      (let phases =
         Analysis.Chronology.phases
           (Trace.Queue_trace.series r.q1)
           (Trace.Queue_trace.series r.q2)
           ~t0:r.t0 ~t1:r.t1
       in
       Report.in_band ~metric:"chronology: queues move in opposition"
         ~paper:"the 4.2 cycle hands packets between the queues"
         ~value:(Option.value ~default:0. (Analysis.Chronology.opposition phases))
         ~lo:0.95 ~hi:1.0);
      Report.expect ~metric:"packet drops" ~paper:"none (infinite buffers)"
        ~measured:(string_of_int (Trace.Drop_log.total r.drops))
        (Trace.Drop_log.total r.drops = 0);
    ]
  in
  {
    Report.id = "FIG8";
    title = "fixed windows 30/25, small pipe, infinite buffers";
    checks;
  }

let fig9 () =
  let r = Runner.run (scenario_fixed ~tau:1.0 ~w1:30 ~w2:25 ()) in
  let q1_max = Runner.queue_peak r r.q1 in
  let q2_max = Runner.queue_peak r r.q2 in
  let checks =
    [
      Report.in_band ~metric:"Q1 maximum (packets)" ~paper:"~23" ~value:q1_max
        ~lo:19. ~hi:27.;
      Report.in_band ~metric:"Q2 maximum (packets)" ~paper:"~23" ~value:q2_max
        ~lo:19. ~hi:27.;
      Report.expect ~metric:"queue maxima equal" ~paper:"same height"
        ~measured:(fmt "%.0f vs %.0f" q1_max q2_max)
        (Float.abs (q1_max -. q2_max) <= 3.);
      Report.in_band ~metric:"line 1 utilization" ~paper:"81%" ~value:r.util_fwd
        ~lo:0.74 ~hi:0.88;
      Report.in_band ~metric:"line 2 utilization" ~paper:"70%" ~value:r.util_bwd
        ~lo:0.62 ~hi:0.78;
      Report.expect ~metric:"neither line fully utilized"
        ~paper:"both queues empty at times"
        ~measured:(fmt "%s / %s" (pct r.util_fwd) (pct r.util_bwd))
        (r.util_fwd < 0.95 && r.util_bwd < 0.95);
      Report.expect ~metric:"packet drops" ~paper:"none (infinite buffers)"
        ~measured:(string_of_int (Trace.Drop_log.total r.drops))
        (Trace.Drop_log.total r.drops = 0);
    ]
  in
  {
    Report.id = "FIG9";
    title = "fixed windows 30/25, large pipe, infinite buffers";
    checks;
  }

(* ------------------------------------------------------------------ *)
(* TAB-CONJ: the zero-size-ACK phase criterion                         *)
(* ------------------------------------------------------------------ *)

let conjecture_table () =
  (* (w1, w2, tau); pipe = 12.5 * tau packets. *)
  let cases =
    [
      (30, 25, 0.01);  (* 30 > 25 + 0.25: out-of-phase, one full *)
      (30, 25, 1.0);   (* 30 < 25 + 25:   in-phase, neither full *)
      (40, 10, 1.0);   (* 40 > 10 + 25 *)
      (30, 5, 0.5);    (* 30 > 5 + 12.5 *)
      (20, 18, 0.25);  (* 20 < 18 + 6.25 *)
      (12, 12, 0.2);   (* 12 < 12 + 5 *)
    ]
  in
  (* The cases are independent simulations; fan them out to the worker
     pool (workers return plain float pairs, which marshal). *)
  let utils =
    Sweep_pool.map ~jobs:(Sweep_pool.default_jobs ())
      (fun (w1, w2, tau) ->
        let r = Runner.run (scenario_fixed ~ack_size:0 ~tau ~w1 ~w2 ()) in
        (r.util_fwd, r.util_bwd))
      cases
  in
  let check_case (w1, w2, tau) (util1, util2) =
    let scenario = scenario_fixed ~ack_size:0 ~tau ~w1 ~w2 () in
    let pipe = Scenario.pipe scenario in
    let predicted = Analysis.Conjecture.predict ~w1 ~w2 ~pipe in
    let observed = Analysis.Conjecture.observe ~util1 ~util2 in
    Report.expect
      ~metric:(fmt "w=(%d,%d) P=%.2f" w1 w2 pipe)
      ~paper:(Analysis.Conjecture.prediction_to_string predicted)
      ~measured:
        (fmt "%s (%s / %s)"
           (Analysis.Conjecture.prediction_to_string observed)
           (pct util1) (pct util2))
      (Analysis.Conjecture.verdict predicted ~observed)
  in
  {
    Report.id = "TAB-CONJ";
    title = "zero-size-ACK fixed-window phase criterion (conjecture, 4.3.3)";
    checks = List.map2 check_case cases utils;
  }

(* ------------------------------------------------------------------ *)
(* TAB-UTIL: utilization vs buffer size                                *)
(* ------------------------------------------------------------------ *)

let buffer_table () =
  let row ~two_way buffer =
    Runner.run (scenario_buffer ~two_way ~buffer)
  in
  let oneway = row ~two_way:false and twoway = row ~two_way:true in
  (* One task list across both columns so a single worker pool covers
     all six simulations; workers reduce results to marshalable tuples
     before they cross the pipe. *)
  let rows =
    Sweep_pool.map ~jobs:(Sweep_pool.default_jobs ())
      (fun task ->
        match task with
        | `Oneway b -> `Oneway (b, (oneway b).util_fwd)
        | `Twoway b ->
          let r = twoway b in
          `Twoway
            ( b,
              Float.max r.util_fwd r.util_bwd,
              Option.value ~default:0. (Runner.effective_pipe r) ))
      (List.map (fun b -> `Oneway b) [ 20; 40; 80 ]
      @ List.map (fun b -> `Twoway b) [ 20; 60; 120 ])
  in
  let ow =
    List.filter_map (function `Oneway (b, u) -> Some (b, u) | _ -> None) rows
  in
  let tw =
    List.filter_map
      (function `Twoway (b, u, p) -> Some (b, u, p) | _ -> None)
      rows
  in
  let show rows =
    String.concat ", " (List.map (fun (b, u) -> fmt "B=%d: %s" b (pct u)) rows)
  in
  let ow_utils = List.map snd ow in
  let tw_utils = List.map (fun (_, u, _) -> u) tw in
  let tw_pipes = List.map (fun (_, _, p) -> p) tw in
  let tw = List.map (fun (b, u, _) -> (b, u)) tw in
  let ow_gain = List.nth ow_utils 2 -. List.hd ow_utils in
  let tw_spread =
    List.fold_left Float.max (List.hd tw_utils) tw_utils
    -. List.fold_left Float.min (List.hd tw_utils) tw_utils
  in
  {
    Report.id = "TAB-UTIL";
    title = "utilization vs buffer size: one-way rises, two-way is stuck";
    checks =
      [
        Report.expect ~metric:"one-way (tau=1s, 3 conns)"
          ~paper:"idle time vanishes as B grows (~B^-2)"
          ~measured:(show ow) (ow_gain >= 0.02);
        Report.expect ~metric:"two-way (tau=0.01s, 1+1)"
          ~paper:"utilization stuck near 70% for every B"
          ~measured:(show tw)
          (tw_spread <= 0.12 && List.for_all (fun u -> u < 0.92) tw_utils);
        Report.expect ~metric:"effective pipe (mean ACK queueing, pkts)"
          ~paper:"grows with B in proportion to the cycle (4.3.1)"
          ~measured:
            (String.concat ", "
               (List.map2
                  (fun (b, _) p -> fmt "B=%d: %.1f" b p)
                  tw tw_pipes))
          (match tw_pipes with
           | [ p20; p60; p120 ] -> p60 > p20 +. 1. && p120 > p60 +. 1.
           | _ -> false);
      ];
  }

(* ------------------------------------------------------------------ *)
(* TAB-DELACK: the delayed-ACK option                                  *)
(* ------------------------------------------------------------------ *)

let delack_table () =
  let run ~delayed_ack ~maxwnd =
    Runner.run ~logs:[ Departures ]
      (Scenario.make ~name:"delack" ~tau:0.01 ~buffer:(Some 20)
         ~conns:
           (Scenario.stagger ~step:1.0
              [
                Scenario.conn ~delayed_ack ~maxwnd Scenario.Forward;
                Scenario.conn ~delayed_ack ~maxwnd Scenario.Reverse;
              ])
         ~duration ~warmup ())
  in
  let cluster r = mixed_cluster_length r r.Runner.dep_fwd in
  let compressed r =
    match ack_compression_both r with
    | Some c -> c.Analysis.Ackcomp.compressed_fraction
    | None -> 0.
  in
  let off_small = run ~delayed_ack:false ~maxwnd:8 in
  let on_small = run ~delayed_ack:true ~maxwnd:8 in
  let on_large = run ~delayed_ack:true ~maxwnd:1000 in
  let acks r =
    Array.fold_left
      (fun acc (_, c) -> acc + Tcp.Receiver.acks_sent (Tcp.Connection.receiver c))
      0 r.Runner.conns
  in
  {
    Report.id = "TAB-DELACK";
    title = "delayed-ACK option (5): partial clusters, compression persists";
    checks =
      [
        Report.expect ~metric:"ACK traffic reduced"
          ~paper:"fewer ACKs (the option's purpose)"
          ~measured:
            (fmt "off: %d ACKs, on: %d ACKs" (acks off_small) (acks on_small))
          (acks on_small < acks off_small);
        Report.expect ~metric:"clusters with maxwnd=8"
          ~paper:"cut into small partial clusters"
          ~measured:
            (fmt "off: %.1f, on: %.1f pkts/cluster" (cluster off_small)
               (cluster on_small))
          (cluster on_small < cluster off_small);
        Report.expect ~metric:"compression with large windows"
          ~paper:"reappears (appreciable partial clusters)"
          ~measured:
            (fmt "compressed fraction small=%.2f large=%.2f"
               (compressed on_small) (compressed on_large))
          (compressed on_large >= Float.min 0.3 (compressed on_small +. 0.05));
        Report.info ~metric:"compression with delayed ACK off"
          ~paper:"baseline (significant)"
          ~measured:(fmt "%.2f" (compressed off_small));
      ];
  }

(* ------------------------------------------------------------------ *)
(* TAB-MHOP: four-switch chain                                         *)
(* ------------------------------------------------------------------ *)

let multihop_table () =
  let r = Multihop.run Multihop.default_spec in
  let mid = Array.length r.trunk_queues / 2 in
  let q_fwd, _ = r.trunk_queues.(mid) in
  let dep_fwd, _ = r.trunk_deps.(mid) in
  let fluct =
    Analysis.Ackcomp.fluctuation_rate
      (Trace.Queue_trace.series q_fwd)
      ~t0:r.t0 ~t1:r.t1 ~window:(2. *. Scenario.data_tx) ~threshold:4.
  in
  let compression =
    Analysis.Ackcomp.ack_spacing
      (Trace.Dep_log.in_window dep_fwd ~t0:r.t0 ~t1:r.t1)
      ~data_tx:Scenario.data_tx
  in
  let utils =
    Array.to_list r.trunk_utils
    |> List.concat_map (fun (a, b) -> [ a; b ])
  in
  let show_utils = String.concat ", " (List.map pct utils) in
  {
    Report.id = "TAB-MHOP";
    title = "four-switch chain, ~50 connections, 1-3 hop paths (5)";
    checks =
      [
        Report.expect ~metric:"ACK compression on middle trunk"
          ~paper:"present"
          ~measured:
            (match compression with
             | Some c ->
               fmt "ratio %.2f, %.0f%% compressed" c.Analysis.Ackcomp.ratio
                 (100. *. c.Analysis.Ackcomp.compressed_fraction)
             | None -> "no samples")
          (match compression with
           | Some c -> c.Analysis.Ackcomp.compressed_fraction >= 0.2
           | None -> false);
        Report.in_band ~metric:"rapid queue fluctuations (events/s)"
          ~paper:"present" ~value:fluct ~lo:0.2 ~hi:100.;
        Report.expect ~metric:"trunk utilizations"
          ~paper:"significantly underutilized lines" ~measured:show_utils
          (List.exists (fun u -> u < 0.95) utils);
        Report.info ~metric:"total drops"
          ~paper:"loss-driven oscillation"
          ~measured:(string_of_int (Trace.Drop_log.total r.drops));
      ];
  }

(* ------------------------------------------------------------------ *)
(* TAB-ABL: design ablations                                           *)
(* ------------------------------------------------------------------ *)

let ablation_table () =
  (* (a) modified vs unmodified congestion-avoidance increment. *)
  let run_ca name =
    let cc = Tcp.Cc.spec name in
    Runner.run
      (Scenario.make ~name:"abl-ca" ~tau:1.0 ~buffer:(Some 20)
         ~conns:
           (Scenario.stagger ~step:1.0
              (List.init 3 (fun _ -> Scenario.conn ~cc Scenario.Forward)))
         ~duration ~warmup ())
  in
  let r_mod = run_ca "tahoe" in
  let r_orig = run_ca "tahoe-unmodified" in
  (* (b) coarse (BSD 500 ms ticks) vs continuous retransmission timers on
     the fig-4 configuration: the synchronization mode must not depend on
     timer quantization. *)
  let run_grain rto_params =
    Runner.run
      (Scenario.make ~name:"abl-grain" ~tau:0.01 ~buffer:(Some 20)
         ~conns:
           (Scenario.stagger ~step:1.0
              [
                Scenario.conn ~rto_params Scenario.Forward;
                Scenario.conn ~rto_params Scenario.Reverse;
              ])
         ~duration ~warmup ())
  in
  let coarse = run_grain Tcp.Rto.default_params in
  let continuous =
    run_grain
      {
        Tcp.Rto.default_params with
        Tcp.Rto.granularity = 0.;
        min_timeout = 0.2;
      }
  in
  let qphase_coarse, _ = Runner.queue_phase coarse in
  let qphase_cont, _ = Runner.queue_phase continuous in
  {
    Report.id = "TAB-ABL";
    title = "ablations: CA increment variant; timer granularity";
    checks =
      [
        Report.expect ~metric:"modified vs original CA increment"
          ~paper:"no qualitative change (2.1)"
          ~measured:
            (fmt "util %s vs %s" (pct r_mod.util_fwd) (pct r_orig.util_fwd))
          (Float.abs (r_mod.util_fwd -. r_orig.util_fwd) <= 0.12);
        Report.expect ~metric:"out-of-phase mode, BSD 500ms timers"
          ~paper:"out-of-phase"
          ~measured:(Analysis.Sync.phase_to_string qphase_coarse)
          (qphase_coarse = Analysis.Sync.Out_of_phase);
        Report.expect ~metric:"out-of-phase mode, continuous timers"
          ~paper:"mode is structural, not a timer artifact"
          ~measured:(Analysis.Sync.phase_to_string qphase_cont)
          (qphase_cont = Analysis.Sync.Out_of_phase);
      ];
  }

(* ------------------------------------------------------------------ *)
(* TAB-RENO: the conjecture across algorithms                          *)
(* ------------------------------------------------------------------ *)

let two_way_scenario ?cc ?(pacing = None) ?(gateway = Net.Discipline.Fifo)
    ?(per_dir = 1) ?(buffer = 20) ~tau () =
  let conn dir = Scenario.conn ?cc ~pacing dir in
  Scenario.make ~name:"two-way" ~tau ~buffer:(Some buffer) ~gateway
    ~conns:
      (Scenario.stagger ~step:1.0
         (List.init per_dir (fun _ -> conn Scenario.Forward)
         @ List.init per_dir (fun _ -> conn Scenario.Reverse)))
    ~duration ~warmup ()

let reno_table () =
  let cc = Tcp.Cc.spec "reno" in
  let small = Runner.run (two_way_scenario ~cc ~tau:0.01 ()) in
  let large = Runner.run (two_way_scenario ~cc ~tau:1.0 ()) in
  let q_small, r_small = Runner.queue_phase small in
  let q_large, r_large = Runner.queue_phase large in
  {
    Report.id = "TAB-RENO";
    title = "4.3-Reno under two-way traffic: the phenomena are not Tahoe-specific";
    checks =
      [
        Report.expect ~metric:"synchronization, small pipe (tau=0.01s)"
          ~paper:"conjectured for any nonpaced window algorithm: out-of-phase"
          ~measured:(fmt "%s (r=%.2f)" (Analysis.Sync.phase_to_string q_small) r_small)
          (q_small = Analysis.Sync.Out_of_phase);
        Report.expect ~metric:"synchronization, large pipe (tau=1s)"
          ~paper:"in-phase"
          ~measured:(fmt "%s (r=%.2f)" (Analysis.Sync.phase_to_string q_large) r_large)
          (q_large = Analysis.Sync.In_phase);
        Report.in_band ~metric:"rapid queue fluctuations (events/s)"
          ~paper:"ACK-compression persists" ~value:(fluctuation small small.q1)
          ~lo:0.2 ~hi:50.;
        Report.expect ~metric:"two-way utilization penalty"
          ~paper:"persists (idle time despite large windows)"
          ~measured:
            (fmt "small pipe %s/%s, large pipe %s/%s" (pct small.util_fwd)
               (pct small.util_bwd) (pct large.util_fwd) (pct large.util_bwd))
          (Float.min small.util_fwd small.util_bwd < 0.97
          && Float.min large.util_fwd large.util_bwd < 0.97);
        Report.info ~metric:"Reno vs Tahoe utilization (small pipe)"
          ~paper:"n/a (Reno postdates the paper)"
          ~measured:(fmt "%s / %s" (pct small.util_fwd) (pct small.util_bwd));
      ];
  }

(* ------------------------------------------------------------------ *)
(* TAB-CCZOO: the conjecture across the whole variant zoo              *)
(* ------------------------------------------------------------------ *)

let cczoo_table () =
  (* Every adaptive zoo entry through the small-pipe two-way
     configuration (fig-4 shape): the paper's phenomena should not be
     Tahoe-specific.  The oracle rides along as the loss-blind
     calibration point. *)
  let run cc = Runner.run (two_way_scenario ~cc ~tau:0.01 ()) in
  let rows =
    List.map
      (fun name ->
        let r = run (Tcp.Cc.spec name) in
        let phase, corr = Runner.queue_phase r in
        (name, r, phase, corr))
      Tcp.Cc_zoo.adaptive
  in
  let min_util (r : Runner.result) = Float.min r.util_fwd r.util_bwd in
  let util_checks =
    List.map
      (fun (name, r, _, _) ->
        Report.expect
          ~metric:(fmt "%s: two-way utilization penalty" name)
          ~paper:"conjectured for any nonpaced window algorithm"
          ~measured:(fmt "%s / %s" (pct r.Runner.util_fwd) (pct r.Runner.util_bwd))
          (min_util r > 0.05 && min_util r < 0.995))
      rows
  in
  let phase_checks =
    List.filter_map
      (fun (name, _, phase, corr) ->
        let measured =
          fmt "%s (r=%.2f)" (Analysis.Sync.phase_to_string phase) corr
        in
        (* Only the go-back-N machines the paper (and TAB-RENO) analyzed
           are pinned to a mode; NewReno's partial-ACK recovery avoids the
           timeouts that decouple the two flows, and settles in-phase. *)
        if List.mem name [ "tahoe"; "reno" ] then
          Some
            (Report.expect
               ~metric:(fmt "%s: synchronization, small pipe" name)
               ~paper:"out-of-phase (fig 4)" ~measured
               (phase = Analysis.Sync.Out_of_phase))
        else
          Some
            (Report.info ~metric:(fmt "%s: synchronization, small pipe" name)
               ~paper:"n/a (postdates the paper)" ~measured))
      rows
  in
  let fluct_checks =
    List.map
      (fun (name, r, _, _) ->
        Report.info
          ~metric:(fmt "%s: rapid queue fluctuations (events/s)" name)
          ~paper:"ACK-compression signature"
          ~measured:(fmt "%.2f" (fluctuation r r.Runner.q1)))
      rows
  in
  let oracle =
    run (Tcp.Cc.spec ~params:[ ("rate", 12.5) ] "oracle")
  in
  let oracle_check =
    Report.info ~metric:"oracle: rate-pinned calibration utilization"
      ~paper:"loss-blind BDP window"
      ~measured:
        (fmt "%s / %s" (pct oracle.Runner.util_fwd) (pct oracle.Runner.util_bwd))
  in
  {
    Report.id = "TAB-CCZOO";
    title = "the variant zoo under two-way traffic: phenomena are not Tahoe-specific";
    checks = util_checks @ phase_checks @ fluct_checks @ [ oracle_check ];
  }

(* ------------------------------------------------------------------ *)
(* TAB-PACE: pacing destroys clustering, and with it the penalty       *)
(* ------------------------------------------------------------------ *)

let pacing_table () =
  (* Pace at exactly the bottleneck data rate: one packet per 80 ms. *)
  let run pacing =
    Runner.run ~logs:[ Departures ] (two_way_scenario ~pacing ~tau:0.01 ())
  in
  let nonpaced = run None in
  let paced = run (Some Scenario.data_tx) in
  let cluster r = mixed_cluster_length r r.Runner.dep_fwd in
  let fluct r = fluctuation r r.Runner.q1 in
  let util r = Float.max r.Runner.util_fwd r.Runner.util_bwd in
  {
    Report.id = "TAB-PACE";
    title = "paced vs nonpaced senders (1, footnote 2): clustering is the cause";
    checks =
      [
        Report.expect ~metric:"packet clustering"
          ~paper:"pacing prevents clusters from forming"
          ~measured:
            (fmt "mean cluster %.1f -> %.1f pkts" (cluster nonpaced)
               (cluster paced))
          (cluster paced < 0.5 *. cluster nonpaced && cluster paced < 3.);
        Report.expect ~metric:"rapid queue fluctuations"
          ~paper:"ACK-compression needs clusters; square waves vanish"
          ~measured:
            (fmt "%.2f -> %.2f events/s" (fluct nonpaced) (fluct paced))
          (fluct paced < 0.5 *. fluct nonpaced);
        Report.expect ~metric:"bottleneck utilization"
          ~paper:"the two-way penalty is largely cured"
          ~measured:(fmt "%s -> %s" (pct (util nonpaced)) (pct (util paced)))
          (util paced > util nonpaced +. 0.05);
      ];
  }

(* ------------------------------------------------------------------ *)
(* TAB-GW: gateway disciplines                                         *)
(* ------------------------------------------------------------------ *)

let gateway_table () =
  let run gateway =
    Runner.run (two_way_scenario ~gateway ~per_dir:5 ~buffer:30 ~tau:0.01 ())
  in
  let fifo = run Net.Discipline.Fifo in
  let rd = run (Net.Discipline.Random_drop { seed = 11 }) in
  let fq = run Net.Discipline.Fair_queue in
  let jain r =
    Analysis.Fairness.jain (Array.map float_of_int r.Runner.delivered)
  in
  let phase r = fst (Runner.queue_phase r) in
  let util r = Float.max r.Runner.util_fwd r.Runner.util_bwd in
  let show r = fmt "util %s, Jain %.3f" (pct (util r)) (jain r) in
  {
    Report.id = "TAB-GW";
    title = "gateway disciplines under two-way traffic (related-work axis, 1)";
    checks =
      [
        Report.expect ~metric:"drop-tail FIFO (the paper's switches)"
          ~paper:"out-of-phase, rapid fluctuations"
          ~measured:(show fifo)
          (phase fifo = Analysis.Sync.Out_of_phase
          && fluctuation fifo fifo.q1 > 0.2);
        Report.expect ~metric:"Random Drop"
          ~paper:"same phenomena (clustering is unaffected)"
          ~measured:(show rd)
          (phase rd = Analysis.Sync.Out_of_phase && fluctuation rd rd.q1 > 0.2);
        Report.expect ~metric:"Fair Queueing"
          ~paper:"phenomena persist; allocation at least as fair"
          ~measured:(show fq)
          (jain fq >= jain fifo -. 0.01);
        Report.info ~metric:"throughput allocation (max/min)"
          ~paper:"Wilder et al. report extreme unfairness on a real testbed"
          ~measured:
            (fmt "fifo %.2f, random-drop %.2f, fq %.2f"
               (Analysis.Fairness.max_min_ratio
                  (Array.map float_of_int fifo.delivered))
               (Analysis.Fairness.max_min_ratio
                  (Array.map float_of_int rd.delivered))
               (Analysis.Fairness.max_min_ratio
                  (Array.map float_of_int fq.delivered)));
      ];
  }

(* ------------------------------------------------------------------ *)
(* TAB-COLLAPSE: the pre-Jacobson baseline                             *)
(* ------------------------------------------------------------------ *)

let collapse_table () =
  (* "In the original TCP specification, the window used by the sender is
     the receiver advertised window maxwnd regardless of the load in the
     network" (2.1): a fixed window with retransmission but no congestion
     control. *)
  let run cc =
    Runner.run
      (Scenario.make ~name:"collapse" ~tau:1.0 ~buffer:(Some 20)
         ~conns:
           (Scenario.stagger ~step:1.0
              [ Scenario.conn ~cc Scenario.Forward;
                Scenario.conn ~cc Scenario.Reverse ])
         ~duration ~warmup ())
  in
  let fixed w = Tcp.Cc.spec ~params:[ ("w", w) ] "fixed" in
  let tahoe = run (Tcp.Cc.spec "tahoe") in
  let rfc793 = run (fixed 40.) in
  let rfc793_wide = run (fixed 60.) in
  let goodput r =
    float_of_int (Array.fold_left ( + ) 0 r.Runner.delivered)
    /. (r.Runner.t1 -. r.Runner.t0)
  in
  let overhead r =
    let rexmt =
      Array.fold_left
        (fun acc (_, c) -> acc + Tcp.Sender.retransmits (Tcp.Connection.sender c))
        0 r.Runner.conns
    in
    let sent =
      Array.fold_left
        (fun acc (_, c) -> acc + Tcp.Sender.data_sent (Tcp.Connection.sender c))
        0 r.Runner.conns
    in
    float_of_int rexmt /. float_of_int (max 1 (rexmt + sent))
  in
  {
    Report.id = "TAB-COLLAPSE";
    title = "why Jacobson's algorithm matters (1): fixed-window TCP collapses";
    checks =
      [
        Report.expect ~metric:"aggregate goodput"
          ~paper:"congestion control gives a dramatic improvement"
          ~measured:
            (fmt "tahoe %.1f vs fixed-window %.1f pkt/s" (goodput tahoe)
               (goodput rfc793))
          (goodput tahoe > 1.5 *. goodput rfc793);
        Report.expect ~metric:"retransmission overhead"
          ~paper:"uncontrolled windows waste the bottleneck on retransmits"
          ~measured:
            (fmt "tahoe %s vs fixed-window %s" (pct (overhead tahoe))
               (pct (overhead rfc793)))
          (overhead tahoe < 0.1 && overhead rfc793 > 0.3);
        Report.expect ~metric:"bigger windows make it worse"
          ~paper:"collapse deepens with load"
          ~measured:
            (fmt "wnd=40: %.1f pkt/s, wnd=60: %.1f pkt/s (overhead %s -> %s)"
               (goodput rfc793) (goodput rfc793_wide)
               (pct (overhead rfc793))
               (pct (overhead rfc793_wide)))
          (goodput rfc793_wide < 1.2 *. goodput rfc793
          && overhead rfc793_wide >= overhead rfc793 -. 0.05);
      ];
  }

(* ------------------------------------------------------------------ *)
(* TAB-RTT: clustering needs identical round-trip times                *)
(* ------------------------------------------------------------------ *)

let rtt_table () =
  (* Two one-way connections; the second one's data takes [skew] seconds
     of extra access latency each way. *)
  let run skew =
    let r =
      Runner.run ~logs:[ Departures ]
        (Scenario.make ~name:"rtt-skew" ~tau:1.0 ~buffer:(Some 20)
           ~conns:
             (Scenario.stagger ~step:1.0
                [
                  Scenario.conn Scenario.Forward;
                  Scenario.conn ~rtt_skew:skew Scenario.Forward;
                ])
           ~duration ~warmup ())
    in
    Option.value ~default:0. (data_clustering r r.dep_fwd)
  in
  let equal_rtt = run 0.0 in
  let sub_packet = run (Scenario.data_tx /. 2.) in
  let super_packet = run 0.5 in
  let baseline = Analysis.Clustering.interleaved_baseline ~n:2 in
  {
    Report.id = "TAB-RTT";
    title = "clustering requires identical round-trip times (3.1, 5)";
    checks =
      [
        Report.in_band ~metric:"identical RTTs: clustering coefficient"
          ~paper:"complete clustering" ~value:equal_rtt ~lo:0.85 ~hi:1.0;
        Report.expect ~metric:"skew below one packet time"
          ~paper:"clustering survives (5)"
          ~measured:(fmt "%.2f vs %.2f" sub_packet equal_rtt)
          (Float.abs (sub_packet -. equal_rtt) <= 0.08);
        Report.expect ~metric:"skew above one packet time"
          ~paper:"no longer perfect"
          ~measured:(fmt "%.2f vs %.2f" super_packet equal_rtt)
          (super_packet < equal_rtt -. 0.12);
        Report.expect ~metric:"partial clustering remains"
          ~paper:"partial clustering may still exist"
          ~measured:(fmt "%.2f vs interleaved %.2f" super_packet baseline)
          (super_packet > baseline +. 0.1);
      ];
  }

(* ------------------------------------------------------------------ *)
(* TAB-FORMULA: the 3.1 closed-form analysis                           *)
(* ------------------------------------------------------------------ *)

let formula_table () =
  (* One-way fixed windows make the paper's steady-state formulas exact:
     q = MAX[0, sum(wnd) - 2P], and when the pipe is underfilled the
     utilization is sum(wnd) * tx / RTT. *)
  let run ~w1 ~w2 ~tau =
    let scenario =
      Scenario.make ~name:"formula" ~tau ~buffer:None
        ~conns:
          [
            Scenario.fixed_conn ~window:w1 ~start_time:0.3 Scenario.Forward;
            Scenario.fixed_conn ~window:w2 ~start_time:0.9 Scenario.Forward;
          ]
        ~duration:250. ~warmup:100. ()
    in
    (Runner.run scenario, Scenario.pipe scenario)
  in
  let q_check ~w1 ~w2 ~tau =
    let r, pipe = run ~w1 ~w2 ~tau in
    let expected = Float.max 0. (float_of_int (w1 + w2) -. (2. *. pipe)) in
    let measured =
      Option.value ~default:(0., 0.)
        (Trace.Series.min_max (Trace.Queue_trace.series r.q1) ~t0:r.t0 ~t1:r.t1)
    in
    Report.expect
      ~metric:(fmt "queue length, w=(%d,%d) tau=%gs" w1 w2 tau)
      ~paper:(fmt "q = sum(wnd) - 2P = %.2f" expected)
      ~measured:(fmt "%.0f..%.0f" (fst measured) (snd measured))
      (Float.abs (fst measured -. expected) <= 1.5
      && Float.abs (snd measured -. expected) <= 1.5)
  in
  let util_check =
    (* Windows too small for the pipe: the line runs at sum(wnd)*tx/RTT. *)
    let w1 = 10 and w2 = 8 and tau = 1.0 in
    let r, _pipe = run ~w1 ~w2 ~tau in
    let ack_tx =
      Engine.Units.transmission_time
        ~bytes:(List.hd r.scenario.conns).ack_size
        ~rate_bps:Net.Topology.bottleneck_bw
    in
    let rtt = (2. *. tau) +. Scenario.data_tx +. ack_tx in
    let expected = float_of_int (w1 + w2) *. Scenario.data_tx /. rtt in
    Report.expect
      ~metric:(fmt "underfilled pipe, w=(%d,%d)" w1 w2)
      ~paper:(fmt "utilization = sum(wnd)*tx/RTT = %s" (pct expected))
      ~measured:(pct r.util_fwd)
      (Float.abs (r.util_fwd -. expected) <= 0.04)
  in
  let capacity_check =
    (* The adaptive case: windows grow until sum(wnd) = C = B + 2P, then
       each connection's +1 overshoot is dropped, so the peak total window
       is C + nconns. *)
    let r = Runner.run ~logs:[ Cwnd ] scenario_fig2 in
    let dt = 0.25 in
    let arrays =
      Array.map
        (fun trace ->
          Trace.Series.resample (Trace.Cwnd_trace.cwnd trace) ~t0:r.t0 ~t1:r.t1
            ~dt)
        r.cwnds
    in
    let n = Array.length arrays.(0) in
    let peak = ref 0. in
    for i = 0 to n - 1 do
      let total =
        Array.fold_left
          (fun acc a -> acc +. Float.of_int (int_of_float a.(i)))
          0. arrays
      in
      if total > !peak then peak := total
    done;
    Report.in_band ~metric:"peak total window (adaptive, fig-2 config)"
      ~paper:"C + acceleration = (B + 2P) + 3 = 48" ~value:!peak ~lo:45.
      ~hi:50.
  in
  {
    Report.id = "TAB-FORMULA";
    title = "the 3.1 closed-form analysis: q = sum(wnd) - 2P; C = B + 2P";
    checks =
      [
        q_check ~w1:20 ~w2:15 ~tau:1.0;
        q_check ~w1:5 ~w2:4 ~tau:0.01;
        q_check ~w1:30 ~w2:25 ~tau:0.5;
        util_check;
        capacity_check;
      ];
  }

let registry =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig45", fig45);
    ("fig67", fig67);
    ("fig8", fig8);
    ("fig9", fig9);
    ("conjecture", conjecture_table);
    ("buffers", buffer_table);
    ("delack", delack_table);
    ("multihop", multihop_table);
    ("ablation", ablation_table);
    ("reno", reno_table);
    ("cczoo", cczoo_table);
    ("pacing", pacing_table);
    ("gateways", gateway_table);
    ("collapse", collapse_table);
    ("rtt", rtt_table);
    ("formula", formula_table);
  ]

let find name = List.assoc_opt name registry

let all () = List.map (fun (_, f) -> f ()) registry
