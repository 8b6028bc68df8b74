open Engine
open Net

(* ---------------- the Link fault hook point, with hand closures ------- *)

let make_link ?(bandwidth = 50_000.) ?(prop_delay = 0.01) ~buffer sim =
  Link.create sim ~id:0 ~name:"test" ~src:0 ~dst:1 ~bandwidth ~prop_delay
    ~buffer

let packet ?(id = 0) ?(conn = 1) ?(kind = Packet.Data) ?(seq = 0) ?(size = 500)
    () =
  {
    Packet.id;
    conn;
    kind;
    seq;
    size;
    src = 0;
    dst = 1;
    retransmit = false;
  }

let no_faults_by_default () =
  let sim = Sim.create () in
  let link = make_link ~buffer:None sim in
  Alcotest.(check bool) "fresh link has no plan" false (Link.has_faults link);
  Alcotest.(check bool) "fresh link is up" false (Link.is_down link);
  Alcotest.check_raises "set_down without a plan"
    (Invalid_argument "Link.set_down: no fault plan installed") (fun () ->
      Link.set_down link true)

let install ?(ingress = fun _ -> `Pass) ?(extra_delay = fun _ -> 0.)
    ?(clone = fun p -> p) link =
  Link.install_faults link ~ingress ~extra_delay ~clone

let test_ingress_drop () =
  let sim = Sim.create () in
  let link = make_link ~buffer:None sim in
  let delivered = ref 0 in
  Link.set_deliver link (fun _ -> incr delivered);
  install link ~ingress:(fun _ -> `Drop "loss");
  let faults = ref [] in
  Link.on_fault link (fun _t ev p -> faults := (ev, p.Packet.id) :: !faults);
  let drops = ref [] in
  Link.on_drop link (fun _t p -> drops := p.Packet.id :: !drops);
  let outcome = Link.send link (packet ~id:7 ()) in
  Sim.run sim ~until:1.;
  Alcotest.(check bool) "send reports the drop" true (outcome = `Dropped);
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  Alcotest.(check int) "drop counter" 1 (Link.total_drops link);
  Alcotest.(check bool) "fault event announced" true
    (!faults = [ (Link.Fault_drop "loss", 7) ]);
  Alcotest.(check (list int)) "ordinary drop hook also fired" [ 7 ] !drops

let test_duplicate () =
  let sim = Sim.create () in
  let link = make_link ~prop_delay:0. ~buffer:None sim in
  let delivered = ref [] in
  Link.set_deliver link (fun p -> delivered := p.Packet.id :: !delivered);
  (* Duplicate exactly the first offered packet; the copy gets id 100. *)
  let first = ref true in
  install link
    ~ingress:(fun _ ->
      if !first then begin
        first := false;
        `Duplicate
      end
      else `Pass)
    ~clone:(fun p -> { p with Packet.id = 100 });
  let dup_events = ref [] in
  Link.on_fault link (fun _t ev p ->
      if ev = Link.Fault_duplicate then dup_events := p.Packet.id :: !dup_events);
  ignore (Link.send link (packet ~id:1 ()) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  Alcotest.(check (list int)) "original then copy delivered" [ 1; 100 ]
    (List.rev !delivered);
  Alcotest.(check (list int)) "copy announced as a fault" [ 100 ] !dup_events

let test_outage_flush_and_reject () =
  let sim = Sim.create () in
  let link = make_link ~prop_delay:0.5 ~buffer:(Some 5) sim in
  let delivered = ref [] in
  Link.set_deliver link (fun p -> delivered := p.Packet.id :: !delivered);
  install link;
  let outage_drops = ref [] in
  Link.on_fault link (fun _t ev p ->
      if ev = Link.Fault_drop "outage" then
        outage_drops := p.Packet.id :: !outage_drops);
  (* Three packets at t=0: id 0 serializes (tx 80 ms) and is propagating
     by the cut at t=0.1; ids 1-2 are still queued (1 in service). *)
  List.iter
    (fun id -> ignore (Link.send link (packet ~id ()) : [ `Ok | `Dropped ]))
    [ 0; 1; 2 ];
  ignore
    (Sim.at sim ~time:0.1 (fun () ->
         Link.set_down link true;
         Alcotest.(check bool) "down after cut" true (Link.is_down link);
         Alcotest.(check bool) "send while down rejected" true
           (Link.send link (packet ~id:9 ()) = `Dropped))
      : Sim.handle);
  ignore (Sim.at sim ~time:0.2 (fun () -> Link.set_down link false) : Sim.handle);
  ignore
    (Sim.at sim ~time:0.3 (fun () ->
         ignore (Link.send link (packet ~id:3 ()) : [ `Ok | `Dropped ]))
      : Sim.handle);
  Sim.run sim ~until:2.;
  (* The cut flushes in-service id 1, queued id 2, and kills propagating
     id 0; id 9 is rejected while down; id 3 flows after recovery. *)
  Alcotest.(check (list int)) "only the post-recovery packet arrives" [ 3 ]
    (List.rev !delivered);
  Alcotest.(check (list int)) "everything else lost to the outage"
    [ 0; 1; 2; 9 ]
    (List.sort compare !outage_drops);
  Alcotest.(check int) "drop counter matches" 4 (Link.total_drops link)

let test_jitter_delay_event () =
  let sim = Sim.create () in
  let link = make_link ~prop_delay:0.01 ~buffer:None sim in
  let arrival = ref None in
  Link.set_deliver link (fun _ -> arrival := Some (Sim.now sim));
  install link ~extra_delay:(fun _ -> 0.05);
  let delays = ref [] in
  Link.on_fault link (fun _t ev _p ->
      match ev with Link.Fault_delay d -> delays := d :: !delays | _ -> ());
  ignore (Link.send link (packet ()) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  (* tx 0.08 + prop 0.01 + jitter 0.05 *)
  Alcotest.(check (option (float 1e-9))) "delayed arrival" (Some 0.14) !arrival;
  Alcotest.(check (list (float 1e-9))) "delay announced" [ 0.05 ] !delays

(* ---------------- scenario-level: determinism and validation ---------- *)

let faulty_scenario ?(fault_seed = 11) ?(spec = Faults.Spec.none) () =
  Core.Scenario.make ~name:"faulty" ~tau:0.01 ~buffer:(Some 20)
    ~conns:
      [
        Core.Scenario.conn ~start_time:0.37 Core.Scenario.Forward;
        Core.Scenario.conn ~start_time:1.91 Core.Scenario.Reverse;
      ]
    ~duration:120. ~warmup:40. ~validate:true
    ~faults:[ (Core.Scenario.Fwd_bottleneck, spec) ]
    ~fault_seed ()

let plan_of (r : Core.Runner.result) = snd (List.hd r.fault_plans)

let assert_clean (r : Core.Runner.result) =
  match Core.Runner.validation_report r with
  | None -> Alcotest.fail "validation harness missing"
  | Some report ->
    if not (Validate.Report.is_clean report) then
      Alcotest.fail (Validate.Report.to_string report)

let test_bernoulli_reproducible () =
  let spec = Faults.Spec.bernoulli 0.03 in
  let run () = Core.Runner.run (faulty_scenario ~spec ()) in
  let a = run () and b = run () in
  let p_a = plan_of a and p_b = plan_of b in
  Alcotest.(check bool) "losses happened" true (Faults.Plan.losses p_a > 0);
  Alcotest.(check int) "same losses" (Faults.Plan.losses p_a)
    (Faults.Plan.losses p_b);
  Alcotest.(check (array int)) "same deliveries" a.delivered b.delivered;
  (* Bit-level: the whole queue trajectory repeats. *)
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "same queue series"
    (Trace.Series.to_list (Trace.Queue_trace.series a.q1))
    (Trace.Series.to_list (Trace.Queue_trace.series b.q1));
  assert_clean a

let test_seed_changes_faults () =
  let spec = Faults.Spec.bernoulli 0.03 in
  let a = Core.Runner.run (faulty_scenario ~spec ~fault_seed:1 ()) in
  let b = Core.Runner.run (faulty_scenario ~spec ~fault_seed:2 ()) in
  Alcotest.(check bool) "different seeds, different trajectories" true
    (Trace.Series.to_list (Trace.Queue_trace.series a.q1)
    <> Trace.Series.to_list (Trace.Queue_trace.series b.q1))

let test_combined_faults_validate_clean () =
  (* Loss + duplication + order-preserving jitter, all at once, under the
     full checker harness. *)
  let spec =
    Faults.Spec.make
      ~loss:(Faults.Spec.Bernoulli 0.02)
      ~jitter:{ Faults.Spec.bound = 0.01; preserve_order = true }
      ~duplicate:0.02 ()
  in
  let r = Core.Runner.run (faulty_scenario ~spec ()) in
  let p = plan_of r in
  Alcotest.(check bool) "losses" true (Faults.Plan.losses p > 0);
  Alcotest.(check bool) "duplicates" true (Faults.Plan.duplicates p > 0);
  Alcotest.(check bool) "delays" true (Faults.Plan.delayed p > 0);
  Alcotest.(check bool) "jitter bounded" true (Faults.Plan.max_delay p < 0.01);
  assert_clean r

let test_burst_loss_validate_clean () =
  let spec =
    Faults.Spec.burst ~p_enter:0.005 ~p_exit:0.1 ~loss_in_burst:0.6 ()
  in
  let r = Core.Runner.run (faulty_scenario ~spec ()) in
  Alcotest.(check bool) "burst losses" true (Faults.Plan.losses (plan_of r) > 0);
  assert_clean r

let test_reordering_jitter_validate_clean () =
  let spec = Faults.Spec.jitter ~preserve_order:false 0.05 in
  let r = Core.Runner.run (faulty_scenario ~spec ()) in
  Alcotest.(check bool) "delays" true (Faults.Plan.delayed (plan_of r) > 0);
  assert_clean r

let test_outage_validate_clean () =
  let spec = Faults.Spec.scheduled_outage [ (60., 70.) ] in
  let r = Core.Runner.run (faulty_scenario ~spec ()) in
  Alcotest.(check bool) "outage drops" true
    (Faults.Plan.outage_drops (plan_of r) > 0);
  assert_clean r

(* ---------------- satellite: end-to-end timeout recovery -------------- *)

let test_timeout_recovery () =
  let sim = Sim.create () in
  let d = Net.Topology.dumbbell sim (Net.Topology.params ~tau:0.01 ~buffer:(Some 20) ()) in
  let conn =
    Tcp.Connection.create d.net
      (Tcp.Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2 ())
  in
  let harness = Validate.Harness.attach d.net ~conns:[ conn ] in
  ignore
    (Faults.Plan.install d.net d.fwd ~seed:3
       (Faults.Spec.scheduled_outage [ (30., 45.) ])
      : Faults.Plan.t);
  let sender = Tcp.Connection.sender conn in
  let max_backoff = ref 0 in
  let min_cwnd = ref infinity in
  Tcp.Sender.on_loss sender (fun time _reason ->
      if time >= 30. then begin
        max_backoff :=
          max !max_backoff (Tcp.Rto.backoff_count (Tcp.Sender.rto sender));
        min_cwnd := Float.min !min_cwnd (Tcp.Sender.cwnd sender)
      end);
  let delivered_mid = ref 0 in
  ignore
    (Sim.at sim ~time:45. (fun () ->
         delivered_mid := Tcp.Connection.delivered conn)
      : Sim.handle);
  Sim.run sim ~until:90.;
  Alcotest.(check bool) "retransmitted" true (Tcp.Sender.retransmits sender > 0);
  Alcotest.(check bool) "repeated timeouts" true (Tcp.Sender.timeouts sender >= 2);
  Alcotest.(check bool) "exponential backoff climbed" true (!max_backoff >= 2);
  Alcotest.(check (float 1e-9)) "window collapsed to one" 1.0 !min_cwnd;
  (* Recovery: the first post-outage ACK resets the backoff (Rto.reset_backoff)
     and slow start reopens the window past one packet. *)
  Alcotest.(check int) "backoff reset by recovery" 0
    (Tcp.Rto.backoff_count (Tcp.Sender.rto sender));
  Alcotest.(check bool) "window reopened" true (Tcp.Sender.cwnd sender > 1.);
  Alcotest.(check bool) "progress resumed after the outage" true
    (Tcp.Connection.delivered conn > !delivered_mid);
  let report = Validate.Harness.finalize harness ~now:(Sim.now sim) in
  if not (Validate.Report.is_clean report) then
    Alcotest.fail (Validate.Report.to_string report)

(* ---------------- satellite: random fault plans stay conservative ----- *)

type fspec = {
  tau : float;
  buffer : int;
  n_fwd : int;
  n_rev : int;
  loss : Faults.Spec.loss option;
  dup : float option;
  jit : Faults.Spec.jitter option;
  outage : Faults.Spec.outage option;
  seed : int;
}

let fspec_gen =
  let open QCheck.Gen in
  let* tau = oneofl [ 0.01; 0.1 ] in
  let* buffer = int_range 5 30 in
  let* n_fwd = int_range 1 2 in
  let* n_rev = int_range 0 1 in
  let* loss =
    oneof
      [
        return None;
        map (fun p -> Some (Faults.Spec.Bernoulli p)) (float_bound_inclusive 0.15);
        return
          (Some
             (Faults.Spec.Gilbert_elliott
                {
                  p_enter = 0.01;
                  p_exit = 0.2;
                  loss_in_burst = 0.5;
                  loss_outside = 0.;
                }));
      ]
  in
  let* dup = oneof [ return None; map Option.some (float_bound_inclusive 0.1) ] in
  let* jit =
    oneof
      [
        return None;
        map
          (fun (bound, preserve_order) ->
            Some { Faults.Spec.bound; preserve_order })
          (pair (float_bound_inclusive 0.05) bool);
      ]
  in
  let* outage =
    oneofl
      [
        None;
        Some { Faults.Spec.windows = [ (20., 25.) ]; flap = None };
        Some { Faults.Spec.windows = []; flap = Some (8., 1.) };
      ]
  in
  let* seed = int_range 0 1000 in
  return { tau; buffer; n_fwd; n_rev; loss; dup; jit; outage; seed }

let fspec_print s =
  Printf.sprintf "{tau=%g; buffer=%d; fwd=%d; rev=%d; faults=%s; seed=%d}" s.tau
    s.buffer s.n_fwd s.n_rev
    (Faults.Spec.to_string
       { loss = s.loss; outage = s.outage; jitter = s.jit; duplicate = s.dup })
    s.seed

let prop_faulty_runs_conservative =
  QCheck.Test.make ~name:"random fault plans: clean checkers, bounded delivery"
    ~count:25
    (QCheck.make ~print:fspec_print fspec_gen)
    (fun s ->
      let sim = Sim.create () in
      let d =
        Net.Topology.dumbbell sim
          (Net.Topology.params ~tau:s.tau ~buffer:(Some s.buffer) ())
      in
      let conns =
        List.init (s.n_fwd + s.n_rev) (fun i ->
            let fwd = i < s.n_fwd in
            Tcp.Connection.create d.net
              (Tcp.Config.make ~conn:(i + 1)
                 ~src_host:(if fwd then d.host1 else d.host2)
                 ~dst_host:(if fwd then d.host2 else d.host1)
                 ~start_time:(0.3 +. (float_of_int i *. 1.1))
                 ()))
      in
      let harness = Validate.Harness.attach d.net ~conns in
      let spec =
        Faults.Spec.make ?loss:s.loss ?outage:s.outage ?jitter:s.jit
          ?duplicate:s.dup ()
      in
      let plan = Faults.Plan.install d.net d.fwd ~seed:s.seed spec in
      (* Count each connection's data deliveries on the wire ourselves. *)
      let wire = Hashtbl.create 8 in
      Net.Network.on_deliver d.net (fun _t p ->
          if p.Packet.kind = Packet.Data then
            Hashtbl.replace wire p.Packet.conn
              (1 + Option.value ~default:0 (Hashtbl.find_opt wire p.Packet.conn)));
      Sim.run sim ~until:60.;
      let report = Validate.Harness.finalize harness ~now:(Sim.now sim) in
      if not (Validate.Report.is_clean report) then
        QCheck.Test.fail_report (Validate.Report.to_string report);
      List.iteri
        (fun i conn ->
          let id = i + 1 in
          let sender = Tcp.Connection.sender conn in
          let sent =
            Tcp.Sender.data_sent sender + Tcp.Sender.retransmits sender
          in
          let delivered = Option.value ~default:0 (Hashtbl.find_opt wire id) in
          let bound =
            sent
            + Faults.Plan.data_duplicates_for plan ~conn:id
            - Faults.Plan.data_losses_for plan ~conn:id
          in
          if delivered > bound then
            QCheck.Test.fail_reportf
              "conn %d delivered %d > %d transmissions %+d dups %+d losses" id
              delivered bound sent
              (Faults.Plan.data_duplicates_for plan ~conn:id)
              (- Faults.Plan.data_losses_for plan ~conn:id))
        conns;
      true)

(* ---------------- spec validation ---------------- *)

let test_spec_validation () =
  let bad msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  bad "Faults.Spec: loss probability must be in [0, 1]" (fun () ->
      ignore (Faults.Spec.bernoulli 1.5 : Faults.Spec.t));
  let window_msg =
    "Faults.Spec: outage windows must be (start, stop) with 0 <= start < \
     stop, in ascending non-overlapping order"
  in
  bad window_msg (fun () ->
      ignore
        (Faults.Spec.scheduled_outage [ (10., 20.); (15., 25.) ]
          : Faults.Spec.t));
  bad window_msg (fun () ->
      ignore (Faults.Spec.scheduled_outage [ (10., 10.) ] : Faults.Spec.t));
  bad "Faults.Spec: jitter bound must be >= 0" (fun () ->
      ignore (Faults.Spec.jitter (-0.1) : Faults.Spec.t));
  Alcotest.(check bool) "none is a no-op" true (Faults.Spec.is_noop Faults.Spec.none);
  Alcotest.(check bool) "merge combines kinds" true
    (not
       (Faults.Spec.is_noop
          (Faults.Spec.merge (Faults.Spec.bernoulli 0.1)
             (Faults.Spec.duplicate 0.1))))

let test_double_install_rejected () =
  let sim = Sim.create () in
  let d =
    Net.Topology.dumbbell sim (Net.Topology.params ~tau:0.01 ~buffer:(Some 20) ())
  in
  ignore
    (Faults.Plan.install d.net d.fwd ~seed:1 (Faults.Spec.bernoulli 0.1)
      : Faults.Plan.t);
  Alcotest.check_raises "second plan on the same link"
    (Invalid_argument
       "Faults.Plan.install: link sw1->sw2 already has a fault plan")
    (fun () ->
      ignore
        (Faults.Plan.install d.net d.fwd ~seed:2 (Faults.Spec.bernoulli 0.1)
          : Faults.Plan.t))

let suite =
  ( "faults",
    [
      Alcotest.test_case "no faults by default" `Quick no_faults_by_default;
      Alcotest.test_case "ingress drop" `Quick test_ingress_drop;
      Alcotest.test_case "duplicate" `Quick test_duplicate;
      Alcotest.test_case "outage flush and reject" `Quick
        test_outage_flush_and_reject;
      Alcotest.test_case "jitter delay event" `Quick test_jitter_delay_event;
      Alcotest.test_case "bernoulli reproducible" `Quick
        test_bernoulli_reproducible;
      Alcotest.test_case "seed changes faults" `Quick test_seed_changes_faults;
      Alcotest.test_case "combined faults validate clean" `Quick
        test_combined_faults_validate_clean;
      Alcotest.test_case "burst loss validates clean" `Quick
        test_burst_loss_validate_clean;
      Alcotest.test_case "reordering jitter validates clean" `Quick
        test_reordering_jitter_validate_clean;
      Alcotest.test_case "outage validates clean" `Quick
        test_outage_validate_clean;
      Alcotest.test_case "timeout recovery" `Quick test_timeout_recovery;
      Alcotest.test_case "spec validation" `Quick test_spec_validation;
      Alcotest.test_case "double install rejected" `Quick
        test_double_install_rejected;
      QCheck_alcotest.to_alcotest prop_faulty_runs_conservative;
    ] )
