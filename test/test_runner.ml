(* The dumbbell runner end-to-end, on short horizons. *)

let short ?(tau = 0.01) ?(buffer = Some 20) conns =
  Core.Scenario.make ~name:"runner-test" ~tau ~buffer ~conns ~duration:60.
    ~warmup:20. ()

let test_single_connection_metrics () =
  let r = Core.Runner.run (short [ Core.Scenario.conn Core.Scenario.Forward ]) in
  Alcotest.(check bool) "utilization sane" true
    (r.util_fwd > 0.5 && r.util_fwd <= 1.0);
  Alcotest.(check bool) "reverse carries only acks" true (r.util_bwd < 0.2);
  Alcotest.(check bool) "goodput positive" true (Core.Runner.goodput r 0 > 5.);
  Alcotest.(check int) "one cwnd trace" 1 (Array.length r.cwnds);
  Alcotest.(check (float 0.)) "window start" 20. r.t0;
  Alcotest.(check (float 0.)) "window end" 60. r.t1

let test_direction_wiring () =
  let r =
    Core.Runner.run
      (short
         [
           Core.Scenario.conn Core.Scenario.Forward;
           Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse;
         ])
  in
  let spec1, c1 = r.conns.(0) in
  let spec2, c2 = r.conns.(1) in
  Alcotest.(check bool) "spec order kept" true
    (spec1.Core.Scenario.dir = Core.Scenario.Forward
    && spec2.Core.Scenario.dir = Core.Scenario.Reverse);
  let cfg1 = Tcp.Connection.config c1 and cfg2 = Tcp.Connection.config c2 in
  Alcotest.(check int) "fwd sources on host1" r.dumbbell.Net.Topology.host1
    cfg1.Tcp.Config.src_host;
  Alcotest.(check int) "rev sources on host2" r.dumbbell.Net.Topology.host2
    cfg2.Tcp.Config.src_host;
  Alcotest.(check int) "conn ids are 1-based" 1 cfg1.Tcp.Config.conn;
  Alcotest.(check int) "second id" 2 cfg2.Tcp.Config.conn

let test_delivered_counts_window_only () =
  let r = Core.Runner.run (short [ Core.Scenario.conn Core.Scenario.Forward ]) in
  let _, conn = r.conns.(0) in
  Alcotest.(check bool) "window excludes warmup traffic" true
    (r.delivered.(0) < Tcp.Connection.delivered conn);
  Alcotest.(check bool) "window nonempty" true (r.delivered.(0) > 0)

let test_queue_traces_attached () =
  let r = Core.Runner.run (short [ Core.Scenario.conn Core.Scenario.Forward ]) in
  Alcotest.(check bool) "q1 saw traffic" true
    (Trace.Series.length (Trace.Queue_trace.series r.q1) > 10);
  Alcotest.(check bool) "q2 saw the acks" true
    (Trace.Series.length (Trace.Queue_trace.series r.q2) > 10);
  Alcotest.(check bool) "departures logged" true (Trace.Dep_log.total r.dep_fwd > 10)

let test_epochs_and_phase_helpers () =
  let r =
    Core.Runner.run
      (short ~tau:0.01
         [
           Core.Scenario.conn Core.Scenario.Forward;
           Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse;
         ])
  in
  let epochs = Core.Runner.epochs r in
  Alcotest.(check bool) "some epochs" true (List.length epochs >= 1);
  let _phase, corr = Core.Runner.queue_phase r in
  Alcotest.(check bool) "correlation in range" true (corr >= -1. && corr <= 1.);
  let _cphase, ccorr = Core.Runner.cwnd_phase r 0 1 in
  Alcotest.(check bool) "cwnd correlation in range" true
    (ccorr >= -1. && ccorr <= 1.)

(* A forced validation failure keeps one spelling, and the CLI knows it
   by that spelling when it comes back as a sweep pool's failed point,
   from either executor. *)
let test_validation_failure_text () =
  let text =
    Printexc.to_string (Core.Runner.Validation_failed "scenario x: 1 violation")
  in
  Alcotest.(check string)
    "spelling" "validation failed for scenario x: 1 violation" text;
  Alcotest.(check bool) "recognized" true
    (Core.Runner.is_validation_failure text);
  Alcotest.(check bool) "another failure is not" false
    (Core.Runner.is_validation_failure (Printexc.to_string (Failure text)));
  List.iter
    (fun backend ->
      match
        Sweep_pool.map ~backend ~jobs:2
          (fun i ->
            if i = 1 then
              raise (Core.Runner.Validation_failed "scenario x: 1 violation");
            i)
          [ 0; 1; 2 ]
      with
      | _ -> Alcotest.fail "the failed point went unreported"
      | exception Sweep_pool.Error { point_failures = [ pf ]; _ } ->
        Alcotest.(check string) "point failure text" text pf.exn_text)
    [ Sweep_pool.Seq; Sweep_pool.Fork ]

let suite =
  ( "runner",
    [
      Alcotest.test_case "single connection metrics" `Quick
        test_single_connection_metrics;
      Alcotest.test_case "direction wiring" `Quick test_direction_wiring;
      Alcotest.test_case "window-restricted delivery" `Quick
        test_delivered_counts_window_only;
      Alcotest.test_case "traces attached" `Quick test_queue_traces_attached;
      Alcotest.test_case "epoch and phase helpers" `Quick
        test_epochs_and_phase_helpers;
      Alcotest.test_case "forced validation failure keeps its text" `Quick
        test_validation_failure_text;
    ] )
