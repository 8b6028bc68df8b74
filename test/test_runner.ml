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
  let r =
    Core.Runner.run ~logs:[ Departures ]
      (short [ Core.Scenario.conn Core.Scenario.Forward ])
  in
  Alcotest.(check bool) "q1 saw traffic" true
    (Trace.Series.length (Trace.Queue_trace.series r.q1) > 10);
  Alcotest.(check bool) "q2 saw the acks" true
    (Trace.Series.length (Trace.Queue_trace.series r.q2) > 10);
  Alcotest.(check bool) "departures logged" true (Trace.Dep_log.total r.dep_fwd > 10)

let test_epochs_and_phase_helpers () =
  let r =
    Core.Runner.run ~logs:[ Cwnd ]
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

(* ---------------- logs kept only when asked ---------------- *)

(* A run that keeps no log answers every other question, and reading a
   log it did not keep names the log instead of reading as empty. *)
let two_way () =
  Core.Runner.run
    (short
       [ Core.Scenario.conn Core.Scenario.Forward;
         Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse ])

let test_cwnd_not_kept () =
  let r = two_way () in
  let raises what f =
    Alcotest.check_raises what
      (Invalid_argument "Cwnd_trace: the Cwnd log was not kept") (fun () ->
        ignore (f () : Trace.Series.t))
  in
  raises "cwnd" (fun () -> Trace.Cwnd_trace.cwnd r.cwnds.(0));
  raises "ssthresh" (fun () -> Trace.Cwnd_trace.ssthresh r.cwnds.(1));
  Alcotest.check_raises "cwnd_phase"
    (Invalid_argument "Cwnd_trace: the Cwnd log was not kept") (fun () ->
      ignore (Core.Runner.cwnd_phase r 0 1 : Analysis.Sync.phase * float));
  Alcotest.(check int) "the conn ids stay readable" 2
    (Trace.Cwnd_trace.conn r.cwnds.(1))

let test_departures_not_kept () =
  let r = two_way () in
  let raises what f =
    Alcotest.check_raises what
      (Invalid_argument "Dep_log: the Departures log was not kept") f
  in
  raises "records" (fun () ->
      ignore (Trace.Dep_log.records r.dep_fwd : Trace.Dep_log.record list));
  raises "in_window" (fun () ->
      ignore
        (Trace.Dep_log.in_window r.dep_bwd ~t0:r.t0 ~t1:r.t1
          : Trace.Dep_log.record list));
  raises "total" (fun () -> ignore (Trace.Dep_log.total r.dep_fwd : int));
  Alcotest.(check bool) "the effective pipe needs no log" true
    (Option.is_some (Core.Runner.effective_pipe r))

(* Random runs, each twice: keeping no log and keeping both.  The logs
   must not change the run, and the no-log run's effective pipe must be
   the one a left fold over the kept departures gives, bit for bit.
   The gateways reorder and evict pending packets, the outages flush
   them, and the event budgets stop runs before and after warm-up. *)
type logs_spec = {
  tau : float;
  buffer : int;
  gateway : Net.Discipline.kind;
  n_fwd : int;
  n_rev : int;
  outage : (Core.Scenario.fault_site * float) option;
  max_events : int option;
}

let logs_spec_gen =
  let open QCheck.Gen in
  let* tau = oneofl [ 0.01; 0.1; 1.0 ] in
  let* buffer = int_range 3 30 in
  let* gateway =
    oneofl
      [ Net.Discipline.Fifo; Net.Discipline.Random_drop { seed = 7 };
        Net.Discipline.Fair_queue ]
  in
  let* n_fwd = int_range 1 3 in
  let* n_rev = int_range 1 3 in
  let* outage =
    opt
      (pair
         (oneofl [ Core.Scenario.Fwd_bottleneck; Core.Scenario.Bwd_bottleneck ])
         (float_range 5. 25.))
  in
  let* max_events = opt (int_range 100 15000) in
  return { tau; buffer; gateway; n_fwd; n_rev; outage; max_events }

let logs_spec_print s =
  Printf.sprintf "{tau=%g; buffer=%d; gateway=%s; fwd=%d; rev=%d; outage=%s; \
                  max_events=%s}"
    s.tau s.buffer
    (match s.gateway with
     | Net.Discipline.Fifo -> "fifo"
     | Net.Discipline.Random_drop _ -> "random-drop"
     | Net.Discipline.Fair_queue -> "fair-queue")
    s.n_fwd s.n_rev
    (match s.outage with
     | None -> "none"
     | Some (site, start) ->
       Printf.sprintf "%s at %g"
         (match site with
          | Core.Scenario.Fwd_bottleneck -> "fwd"
          | Core.Scenario.Bwd_bottleneck -> "bwd")
         start)
    (match s.max_events with None -> "none" | Some n -> string_of_int n)

let logs_scenario (s : logs_spec) =
  let open Core.Scenario in
  let conns dir n = List.init n (fun _ -> conn dir) in
  make ~name:"logs-prop" ~tau:s.tau ~buffer:(Some s.buffer) ~gateway:s.gateway
    ~conns:(stagger ~step:0.7 (conns Forward s.n_fwd @ conns Reverse s.n_rev))
    ~faults:
      (List.map
         (fun (site, start) ->
           (site, Faults.Spec.scheduled_outage [ (start, start +. 2.) ]))
         (Option.to_list s.outage))
    ~duration:30. ~warmup:10. ()

(* Everything the logs must leave alone, floats in exact hex. *)
let run_fingerprint (r : Core.Runner.result) =
  let series s =
    String.concat ";"
      (List.map (fun (t, v) -> Printf.sprintf "%h:%h" t v)
         (Trace.Series.to_list s))
  in
  String.concat "|"
    [ Engine.Sim.stop_reason_to_string r.stop;
      Printf.sprintf "%h %h %h" r.util_fwd r.util_bwd r.t1;
      String.concat ";"
        (List.map
           (fun (d : Trace.Drop_log.record) ->
             Printf.sprintf "%h:%d:%d:%d" d.time d.conn d.seq d.link)
           (Trace.Drop_log.records r.drops));
      series (Trace.Queue_trace.series r.q1);
      series (Trace.Queue_trace.series r.q2) ]

(* The effective pipe as the left fold over the kept ACK departures. *)
let folded_pipe (r : Core.Runner.result) =
  let pipe dep =
    let sum, count =
      List.fold_left
        (fun (sum, count) (d : Trace.Dep_log.record) ->
          if d.kind = Net.Packet.Ack && not (Float.is_nan d.sojourn) then
            (sum +. d.sojourn, count + 1)
          else (sum, count))
        (0., 0)
        (Trace.Dep_log.in_window dep ~t0:r.t0 ~t1:r.t1)
    in
    if count = 0 then None
    else Some (sum /. float_of_int count /. Core.Scenario.data_tx)
  in
  match (pipe r.dep_fwd, pipe r.dep_bwd) with
  | Some a, Some b -> Some (Float.max a b)
  | (Some _ as x), None | None, (Some _ as x) -> x
  | None, None -> None

let bits = Option.map Int64.bits_of_float

let prop_logs_change_nothing =
  QCheck.Test.make ~name:"logs change no result; the pipe fold is exact"
    ~count:200
    (QCheck.make ~print:logs_spec_print logs_spec_gen)
    (fun s ->
      let scenario = logs_scenario s in
      let budget = Core.Runner.budget ?max_events:s.max_events () in
      let bare = Core.Runner.run ~budget scenario in
      let kept = Core.Runner.run ~logs:[ Cwnd; Departures ] ~budget scenario in
      if run_fingerprint bare <> run_fingerprint kept then
        QCheck.Test.fail_report "keeping the logs changed the run";
      let pipe = Core.Runner.effective_pipe bare in
      if bits pipe <> bits (folded_pipe kept) then
        QCheck.Test.fail_reportf "effective pipe %s, the fold over the log %s"
          (Option.fold ~none:"none" ~some:(Printf.sprintf "%h") pipe)
          (Option.fold ~none:"none" ~some:(Printf.sprintf "%h")
             (folded_pipe kept));
      true)

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
      Alcotest.test_case "an unkept Cwnd log raises, naming it" `Quick
        test_cwnd_not_kept;
      Alcotest.test_case "an unkept Departures log raises, naming it" `Quick
        test_departures_not_kept;
      QCheck_alcotest.to_alcotest prop_logs_change_nothing;
    ] )
