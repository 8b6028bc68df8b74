(* lib/obs Flowstats: the per-flow accounting registry.

   Two layers of guarantees:

     - unit: the registry is keyed by conn id (any id, listed in id
       order), and the accounting mirrors the sender's Karn
       discipline — retransmissions and losses clear the RTT timer, an
       ACK samples only when it covers the timed sequence;

     - golden: on a two-way fig-4-style run, the online registry (fed
       from Probe hooks) and an offline registry (fed from the decoded
       binary trace of the same run) produce byte-identical JSON, and
       both agree with the sender's own counters. *)

let get = function
  | Some v -> v
  | None -> Alcotest.fail "expected Some"

(* ---------------- registry mechanics ---------------- *)

let conns t = List.map (fun s -> s.Obs.Flowstats.s_conn) (Obs.Flowstats.all t)

let test_register_in_conn_order () =
  let t = Obs.Flowstats.create () in
  Alcotest.check_raises "negative conn rejected"
    (Invalid_argument "Flowstats.register: negative conn id") (fun () ->
      Obs.Flowstats.register t ~conn:(-1) ~start_time:0. ~flow_size:None);
  List.iter
    (fun c -> Obs.Flowstats.register t ~conn:c ~start_time:0. ~flow_size:None)
    [ 3; 1; 2 ];
  Alcotest.(check (list int)) "iteration is in conn order, not registration"
    [ 1; 2; 3 ] (conns t);
  Alcotest.(check bool) "unknown conn has no stats" true
    (Obs.Flowstats.stats t ~conn:99 = None);
  (* A trace may declare any id; memory must not follow its size. *)
  let huge = 1 lsl 50 in
  Obs.Flowstats.register t ~conn:huge ~start_time:0. ~flow_size:None;
  Obs.Flowstats.record_data_delivered t ~conn:huge ~bytes:500;
  Alcotest.(check (list int)) "huge id listed last" [ 1; 2; 3; huge ] (conns t);
  Alcotest.(check int) "huge id accounted" 500
    (get (Obs.Flowstats.stats t ~conn:huge)).Obs.Flowstats.s_delivered_bytes

let test_cli_stats_huge_conn_id () =
  (* A 14-byte trace declaring conn 2^50 must cost one flow, not a
     conn-indexed array of 2^50 slots. *)
  let path = Filename.temp_file "flowstats-huge" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc "NSBT\002\002\128\128\128\128\128\128\128\002";
  close_out oc;
  let code, out =
    Test_cc_conformance.run_netsim [ "trace"; "stats"; path; "--json" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  match Obs.Json.parse out with
  | Error msg -> Alcotest.failf "stats JSON does not parse: %s" msg
  | Ok v ->
    let flows =
      match Obs.Json.member "flows" v with
      | Some (Obs.Json.List flows) -> flows
      | _ -> Alcotest.fail "flows missing"
    in
    Alcotest.(check (list (option (float 0.))))
      "one flow, conn 2^50" [ Some (float_of_int (1 lsl 50)) ]
      (List.map
         (fun f -> Option.bind (Obs.Json.member "conn" f) Obs.Json.to_float)
         flows)

(* The malformed traces of [Test_btrace.malformed] once crashed the
   trace commands (exit 125) or passed tracecheck.  Every command must
   now stop cleanly: a warning and exit 0, or an error and exit 1. *)
let test_cli_malformed_traces () =
  let path = Filename.temp_file "malformed" ".bin" in
  let out = Filename.temp_file "malformed" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path; Sys.remove out) @@ fun () ->
  List.iter
    (fun (name, data, kind) ->
      let oc = open_out_bin path in
      output_string oc data;
      close_out oc;
      let run args =
        let code, out = Test_cc_conformance.run_netsim args in
        if code <> 0 && code <> 1 then
          Alcotest.failf "%s: netsim %s exited %d" name
            (String.concat " " args) code;
        (code, out)
      in
      let _, json = run [ "trace"; "stats"; path; "--json" ] in
      (match Obs.Json.parse json with
       | Ok _ -> ()
       | Error msg -> Alcotest.failf "%s: stats JSON does not parse: %s" name msg);
      ignore (run [ "trace"; "export"; path; "-o"; out ] : int * string);
      ignore
        (run [ "trace"; "export"; path; "--format"; "perfetto"; "-o"; out ]
          : int * string);
      let code, _ = run [ "tracecheck"; path ] in
      Alcotest.(check int)
        (name ^ ": tracecheck fails a corrupt trace, passes a torn one")
        (if kind = `Corrupt then 1 else 0)
        code)
    Test_btrace.malformed

let test_cli_export_rejects_non_trace () =
  let path = Filename.temp_file "not-a-trace" ".txt" in
  let out = Filename.temp_file "never-written" ".jsonl" in
  Fun.protect ~finally:(fun () ->
      Sys.remove path;
      if Sys.file_exists out then Sys.remove out)
  @@ fun () ->
  let oc = open_out_bin path in
  output_string oc "{\"t\":0,\"ev\":\"inject\"}\n";
  close_out oc;
  List.iter
    (fun format ->
      if Sys.file_exists out then Sys.remove out;
      let code, _ =
        Test_cc_conformance.run_netsim
          [ "trace"; "export"; path; "--format"; format; "-o"; out ]
      in
      Alcotest.(check int) (format ^ ": exit 2") 2 code;
      Alcotest.(check bool) (format ^ ": no output file") false
        (Sys.file_exists out))
    [ "jsonl"; "perfetto" ]

let test_reregistration_keeps_counters () =
  (* A conn-meta record arriving after a bare conn-def refreshes the
     metadata without losing accumulated counts. *)
  let t = Obs.Flowstats.create () in
  Obs.Flowstats.register t ~conn:1 ~start_time:0. ~flow_size:None;
  Obs.Flowstats.record_data_delivered t ~conn:1 ~bytes:1000;
  Obs.Flowstats.register t ~conn:1 ~start_time:2.5 ~flow_size:(Some 10);
  let s = get (Obs.Flowstats.stats t ~conn:1) in
  Alcotest.(check (list int)) "still one flow" [ 1 ] (conns t);
  Alcotest.(check (float 0.)) "metadata refreshed" 2.5
    s.Obs.Flowstats.s_start_time;
  Alcotest.(check (option int)) "size refreshed" (Some 10)
    s.Obs.Flowstats.s_flow_size;
  Alcotest.(check int) "counters kept" 1000 s.Obs.Flowstats.s_delivered_bytes

let test_unregistered_events_ignored () =
  let t = Obs.Flowstats.create () in
  Obs.Flowstats.record_send t ~time:1. ~conn:9 ~seq:0 ~retransmit:false;
  Obs.Flowstats.record_data_delivered t ~conn:9 ~bytes:500;
  Obs.Flowstats.record_loss t ~conn:9;
  Alcotest.(check (list int)) "nothing registered" [] (conns t)

(* ---------------- the Karn mirror ---------------- *)

let test_karn_discipline () =
  let t = Obs.Flowstats.create () in
  Obs.Flowstats.register t ~conn:1 ~start_time:0. ~flow_size:None;
  (* First transmission starts the timer; a second one while timing does
     not retime. *)
  Obs.Flowstats.record_send t ~time:1.0 ~conn:1 ~seq:0 ~retransmit:false;
  Obs.Flowstats.record_send t ~time:1.1 ~conn:1 ~seq:1 ~retransmit:false;
  (* ackno 1 covers seq 0: sample = 1.5 - 1.0, from the first send. *)
  Obs.Flowstats.record_ack_delivered t ~time:1.5 ~conn:1 ~ackno:1;
  let s = get (Obs.Flowstats.stats t ~conn:1) in
  Alcotest.(check int) "one sample" 1 s.Obs.Flowstats.s_rtt_samples;
  Alcotest.(check (option (float 1e-12))) "sampled from the timed send"
    (Some 0.5) s.Obs.Flowstats.s_rtt_min;
  (* Karn: a retransmission clears the timer, so the covering ACK that
     follows must NOT sample. *)
  Obs.Flowstats.record_send t ~time:2.0 ~conn:1 ~seq:2 ~retransmit:false;
  Obs.Flowstats.record_send t ~time:2.5 ~conn:1 ~seq:2 ~retransmit:true;
  Obs.Flowstats.record_ack_delivered t ~time:3.0 ~conn:1 ~ackno:3;
  let s = get (Obs.Flowstats.stats t ~conn:1) in
  Alcotest.(check int) "retransmit counted" 1 s.Obs.Flowstats.s_retransmits;
  Alcotest.(check int) "no sample over a retransmitted seq" 1
    s.Obs.Flowstats.s_rtt_samples;
  (* A loss signal also clears the timer. *)
  Obs.Flowstats.record_send t ~time:4.0 ~conn:1 ~seq:3 ~retransmit:false;
  Obs.Flowstats.record_loss t ~conn:1;
  Obs.Flowstats.record_ack_delivered t ~time:5.0 ~conn:1 ~ackno:4;
  let s = get (Obs.Flowstats.stats t ~conn:1) in
  Alcotest.(check int) "loss counted" 1 s.Obs.Flowstats.s_loss_events;
  Alcotest.(check int) "no sample after loss cleared the timer" 1
    s.Obs.Flowstats.s_rtt_samples;
  (* An ACK that does not advance snd_una is a duplicate: ignored. *)
  Obs.Flowstats.record_send t ~time:6.0 ~conn:1 ~seq:4 ~retransmit:false;
  Obs.Flowstats.record_ack_delivered t ~time:6.2 ~conn:1 ~ackno:4;
  let s = get (Obs.Flowstats.stats t ~conn:1) in
  Alcotest.(check int) "duplicate ack ignored" 1 s.Obs.Flowstats.s_rtt_samples;
  (* The next covering ACK samples against the still-armed timer. *)
  Obs.Flowstats.record_ack_delivered t ~time:6.5 ~conn:1 ~ackno:5;
  let s = get (Obs.Flowstats.stats t ~conn:1) in
  Alcotest.(check int) "second sample" 2 s.Obs.Flowstats.s_rtt_samples;
  Alcotest.(check (option (float 1e-12))) "0.5 s again" (Some 0.5)
    s.Obs.Flowstats.s_rtt_max;
  Alcotest.(check int) "cumulative ack tally" 5 s.Obs.Flowstats.s_acked_pkts;
  Alcotest.(check int) "first transmissions tallied" 5
    s.Obs.Flowstats.s_data_sends

let test_sized_flow_completion () =
  let t = Obs.Flowstats.create () in
  Obs.Flowstats.register t ~conn:1 ~start_time:2. ~flow_size:(Some 3);
  List.iter
    (fun _ -> Obs.Flowstats.record_data_delivered t ~conn:1 ~bytes:1000)
    [ (); (); () ];
  Obs.Flowstats.record_ack_delivered t ~time:4. ~conn:1 ~ackno:2;
  Alcotest.(check (option (float 0.))) "not complete before the last ack" None
    (get (Obs.Flowstats.stats t ~conn:1)).Obs.Flowstats.s_fct;
  Obs.Flowstats.record_ack_delivered t ~time:6. ~conn:1 ~ackno:3;
  Obs.Flowstats.record_ack_delivered t ~time:8. ~conn:1 ~ackno:4;
  let s = get (Obs.Flowstats.stats t ~conn:1) in
  Alcotest.(check (option (float 1e-12))) "fct = completion - start"
    (Some 4.) s.Obs.Flowstats.s_fct;
  Alcotest.(check (option (float 1e-9))) "throughput = bytes / fct"
    (Some 750.) s.Obs.Flowstats.s_throughput

let test_feed_matches_direct_calls () =
  (* The offline fold is nothing but a dispatcher: folding handcrafted
     trace records must leave the registry byte-identical to calling the
     record_* functions directly. *)
  let pkt ?(retransmit = false) ~kind ~seq ~size conn =
    { Obs.Btrace.id = 0; conn; kind; seq; retransmit; size }
  in
  let items =
    [
      Obs.Btrace.Def_conn 1;
      Obs.Btrace.Def_conn_meta
        { conn = 1; start_time = 0.5; flow_size = Some 2 };
      Obs.Btrace.Event
        (1.0, Obs.Btrace.Send { conn = 1; pkt = pkt ~kind:Net.Packet.Data ~seq:0 ~size:1000 1 });
      Obs.Btrace.Event
        (1.2, Obs.Btrace.Deliver (pkt ~kind:Net.Packet.Data ~seq:0 ~size:1000 1));
      Obs.Btrace.Event
        (1.4, Obs.Btrace.Deliver (pkt ~kind:Net.Packet.Ack ~seq:1 ~size:50 1));
      Obs.Btrace.Event
        (2.0, Obs.Btrace.Cwnd { conn = 1; cwnd = 3.; ssthresh = 8. });
      Obs.Btrace.Event (2.1, Obs.Btrace.Loss { conn = 1; reason = "timeout" });
      Obs.Btrace.Event
        ( 2.2,
          Obs.Btrace.Send
            { conn = 1; pkt = pkt ~retransmit:true ~kind:Net.Packet.Data ~seq:1 ~size:1000 1 } );
      Obs.Btrace.Event
        (2.6, Obs.Btrace.Deliver (pkt ~kind:Net.Packet.Data ~seq:1 ~size:1000 1));
      Obs.Btrace.Event
        (2.8, Obs.Btrace.Deliver (pkt ~kind:Net.Packet.Ack ~seq:2 ~size:50 1));
    ]
  in
  let folded = Obs.Flowstats.create () in
  List.iter (Obs.Flowstats.feed folded) items;
  let direct = Obs.Flowstats.create () in
  Obs.Flowstats.register direct ~conn:1 ~start_time:0.5 ~flow_size:(Some 2);
  Obs.Flowstats.record_send direct ~time:1.0 ~conn:1 ~seq:0 ~retransmit:false;
  Obs.Flowstats.record_data_delivered direct ~conn:1 ~bytes:1000;
  Obs.Flowstats.record_ack_delivered direct ~time:1.4 ~conn:1 ~ackno:1;
  Obs.Flowstats.record_cwnd direct ~conn:1 ~cwnd:3.;
  Obs.Flowstats.record_loss direct ~conn:1;
  Obs.Flowstats.record_send direct ~time:2.2 ~conn:1 ~seq:1 ~retransmit:true;
  Obs.Flowstats.record_data_delivered direct ~conn:1 ~bytes:1000;
  Obs.Flowstats.record_ack_delivered direct ~time:2.8 ~conn:1 ~ackno:2;
  Alcotest.(check string) "fold = direct calls, byte for byte"
    (Obs.Flowstats.to_json direct)
    (Obs.Flowstats.to_json folded);
  let s = get (Obs.Flowstats.stats folded ~conn:1) in
  Alcotest.(check (option (float 1e-12))) "sized flow completed at 2.8"
    (Some 2.3) s.Obs.Flowstats.s_fct

(* ---------------- golden: online = offline on a real run ---------------- *)

let golden_scenario ?flow_size () =
  Core.Scenario.make ~name:"flowstats-golden" ~tau:0.01 ~buffer:(Some 20)
    ~conns:
      [
        Core.Scenario.conn ?flow_size Core.Scenario.Forward;
        Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse;
      ]
    ~duration:20. ~warmup:1. ()

let run_traced scenario =
  let binary = Buffer.create (1 lsl 16) in
  let setup =
    Obs.Probe.setup ~flowstats:true ~btrace:(Buffer.add_string binary) ()
  in
  let r = Core.Runner.run ~obs:setup scenario in
  let probe = get r.Core.Runner.obs in
  let fs = get (Obs.Probe.flowstats probe) in
  (r, fs, Buffer.contents binary)

let test_online_offline_identity () =
  let r, fs, binary = run_traced (golden_scenario ()) in
  let online = Obs.Flowstats.to_json fs in
  (* Replay the run's own binary trace through a fresh registry. *)
  let trace =
    match Obs.Btrace.read binary with
    | Ok ({ Obs.Btrace.torn = None; _ } as f) -> f
    | Ok _ -> Alcotest.fail "flushed trace reports a torn tail"
    | Error msg -> Alcotest.failf "binary trace unreadable: %s" msg
  in
  let offline = Obs.Flowstats.create () in
  List.iter (Obs.Flowstats.feed offline) trace.Obs.Btrace.items;
  Alcotest.(check string) "online = offline, byte for byte" online
    (Obs.Flowstats.to_json offline);
  (* Both sides must also agree with the sender's own bookkeeping. *)
  Array.iteri
    (fun i ((_ : Core.Scenario.conn_spec), c) ->
      let sender = Tcp.Connection.sender c in
      let s = get (Obs.Flowstats.stats fs ~conn:(i + 1)) in
      Alcotest.(check int)
        (Printf.sprintf "conn %d retransmits match the sender" (i + 1))
        (Tcp.Sender.retransmits sender)
        s.Obs.Flowstats.s_retransmits;
      Alcotest.(check bool)
        (Printf.sprintf "conn %d sampled RTTs" (i + 1))
        true
        (s.Obs.Flowstats.s_rtt_samples > 0))
    r.Core.Runner.conns;
  (* Two-way traffic delivers meaningfully on both flows, so Jain's
     index is defined and the infinite sources report no FCT. *)
  let jain = get (Obs.Flowstats.jain fs) in
  Alcotest.(check bool) "jain in (0, 1]" true (jain > 0. && jain <= 1.);
  Alcotest.(check (option (float 0.))) "no FCT for infinite sources" None
    (Obs.Flowstats.fct_quantile fs 0.5)

(* The three readings of one run agree byte for byte: the online
   registry, the callback fold that [netsim trace stats] runs
   ([Flowstats.observer] on [Btrace.decode]), and [Btrace.read] followed
   by [feed], over random gateways, controllers, ACK policies, sized
   flows and fault plans. *)
let prop_three_readings_agree =
  QCheck.Test.make ~name:"online, callback fold and read + feed agree"
    ~count:40
    (QCheck.make ~print:Test_obs.spec_print Test_obs.spec_gen)
    (fun s ->
      let _, fs, binary = run_traced (Test_obs.scenario_of_spec s) in
      let online = Obs.Flowstats.to_json fs in
      let folded = Obs.Flowstats.create () and fed = Obs.Flowstats.create () in
      (match Obs.Btrace.decode binary (Obs.Flowstats.observer folded) with
       | Ok (_, None) -> ()
       | Ok (_, Some (Obs.Btrace.Torn msg | Obs.Btrace.Corrupt msg))
       | Error msg ->
         QCheck.Test.fail_reportf "the callback fold stopped: %s" msg);
      (match Obs.Btrace.read binary with
       | Ok { Obs.Btrace.items; torn = None; _ } ->
         List.iter (Obs.Flowstats.feed fed) items
       | Ok { torn = Some msg; _ } | Error msg ->
         QCheck.Test.fail_reportf "read stopped: %s" msg);
      let folded = Obs.Flowstats.to_json folded
      and fed = Obs.Flowstats.to_json fed in
      if folded <> online then
        QCheck.Test.fail_reportf "callback fold:\n%s\nonline:\n%s" folded
          online;
      if fed <> online then
        QCheck.Test.fail_reportf "read + feed:\n%s\nonline:\n%s" fed online;
      true)

let test_sized_flow_fct_matches_sender () =
  let r, fs, _ = run_traced (golden_scenario ~flow_size:(Some 50) ()) in
  let spec, c = r.Core.Runner.conns.(0) in
  let completed = get (Tcp.Sender.completed_at (Tcp.Connection.sender c)) in
  let s = get (Obs.Flowstats.stats fs ~conn:1) in
  Alcotest.(check (option (float 0.))) "fct = sender completion - start"
    (Some (completed -. spec.Core.Scenario.start_time))
    s.Obs.Flowstats.s_fct;
  Alcotest.(check bool) "cross-flow fct quantile defined" true
    (Obs.Flowstats.fct_quantile fs 0.99 <> None)

(* Independent oracle for the RTT statistics: the registry's Karn mirror
   counts its samples from the trace hooks, the sender counts the ones
   [Tcp.Rto] accepts.  The two counts are kept apart, so they must agree
   on every gateway, controller, ACK policy and fault plan. *)
let test_rtt_samples_match_rto () =
  let conn = Core.Scenario.conn in
  let fwd = Core.Scenario.Forward and rev = Core.Scenario.Reverse in
  let run ?gateway ?(tau = 0.01) ?(buffer = Some 10) ?faults name conns =
    let scenario =
      Core.Scenario.make ~name ~tau ~buffer ?gateway ~conns ?faults
        ~duration:60. ~warmup:10. ()
    in
    let setup = Obs.Probe.setup ~flowstats:true () in
    let r = Core.Runner.run ~obs:setup scenario in
    let fs = get (Obs.Probe.flowstats (get r.Core.Runner.obs)) in
    Array.iteri
      (fun i ((_ : Core.Scenario.conn_spec), c) ->
        let s = get (Obs.Flowstats.stats fs ~conn:(i + 1)) in
        let rto = Tcp.Sender.rto (Tcp.Connection.sender c) in
        Alcotest.(check int)
          (Printf.sprintf "%s: conn %d samples = Rto.samples" name (i + 1))
          (Tcp.Rto.samples rto) s.Obs.Flowstats.s_rtt_samples;
        Alcotest.(check bool)
          (Printf.sprintf "%s: conn %d sampled" name (i + 1))
          true
          (s.Obs.Flowstats.s_rtt_samples > 0))
      r.Core.Runner.conns
  in
  (* One connection each way, the reverse one starting 1 s later. *)
  let two_way mk = [ mk fwd; { (mk rev) with Core.Scenario.start_time = 1. } ] in
  let tahoe d = conn d in
  run "fifo tahoe" (two_way tahoe);
  run "fifo tahoe, tau 1" ~tau:1.0 ~buffer:(Some 20) (two_way tahoe);
  run "random drop" ~gateway:(Net.Discipline.Random_drop { seed = 3 })
    [ conn fwd; conn ~start_time:0.5 fwd; conn ~start_time:1. rev ];
  run "fair queueing" ~gateway:Net.Discipline.Fair_queue
    [ conn fwd; conn ~start_time:0.5 fwd; conn ~start_time:1. rev ];
  List.iter
    (fun name -> run name (two_way (conn ~cc:(Tcp.Cc.spec name))))
    [ "reno"; "newreno"; "compound" ];
  run "delayed ack" (two_way (conn ~delayed_ack:true));
  run "pacing" (two_way (conn ~pacing:(Some Core.Scenario.data_tx)));
  run "rtt skew" [ conn fwd; conn ~start_time:1. ~rtt_skew:0.2 fwd ];
  run "sized flow" [ conn ~flow_size:(Some 200) fwd; conn ~start_time:1. rev ];
  run "bernoulli loss"
    ~faults:[ (Core.Scenario.Fwd_bottleneck, Faults.Spec.bernoulli 0.03) ]
    (two_way tahoe);
  run "outage, jitter, duplicates"
    ~faults:
      [
        ( Core.Scenario.Fwd_bottleneck,
          Faults.Spec.merge
            (Faults.Spec.scheduled_outage [ (20., 25.) ])
            (Faults.Spec.duplicate 0.02) );
        (Core.Scenario.Bwd_bottleneck, Faults.Spec.jitter 0.01);
      ]
    (two_way tahoe)

let suite =
  ( "flowstats",
    [
      Alcotest.test_case "registry: conn order, any conn id" `Quick
        test_register_in_conn_order;
      Alcotest.test_case "cli: trace stats on a huge conn id" `Quick
        test_cli_stats_huge_conn_id;
      Alcotest.test_case "cli: malformed traces stop cleanly" `Quick
        test_cli_malformed_traces;
      Alcotest.test_case "cli: export of a non-trace writes nothing" `Quick
        test_cli_export_rejects_non_trace;
      Alcotest.test_case "registry: re-registration keeps counters" `Quick
        test_reregistration_keeps_counters;
      Alcotest.test_case "registry: unregistered events ignored" `Quick
        test_unregistered_events_ignored;
      Alcotest.test_case "accounting: Karn RTT discipline" `Quick
        test_karn_discipline;
      Alcotest.test_case "accounting: sized-flow completion" `Quick
        test_sized_flow_completion;
      Alcotest.test_case "offline: feed equals direct record_* calls" `Quick
        test_feed_matches_direct_calls;
      Alcotest.test_case "golden: online and offline JSON byte-identical"
        `Quick test_online_offline_identity;
      QCheck_alcotest.to_alcotest prop_three_readings_agree;
      Alcotest.test_case "golden: sized-flow FCT matches the sender" `Quick
        test_sized_flow_fct_matches_sender;
      Alcotest.test_case "oracle: RTT samples equal the sender's Rto count"
        `Quick test_rtt_samples_match_rto;
    ] )
