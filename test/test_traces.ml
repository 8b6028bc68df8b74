open Engine
open Net

(* A one-link rig with hand-fed packets. *)
let rig ?(buffer = Some 3) () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~id:7 ~name:"rig" ~src:0 ~dst:1 ~bandwidth:50_000.
      ~prop_delay:0. ~buffer
  in
  Link.set_deliver link (fun _ -> ());
  let packet ?(conn = 1) ?(kind = Packet.Data) seq =
    {
      Packet.id = seq;
      conn;
      kind;
      seq;
      size = (match kind with Packet.Data -> 500 | Packet.Ack -> 50);
      src = 0;
      dst = 1;
      retransmit = false;
    }
  in
  (sim, link, packet)

let test_queue_trace () =
  let sim, link, packet = rig () in
  let qt = Trace.Queue_trace.attach link in
  ignore (Link.send link (packet 0) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet 1) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  let values = List.map snd (Trace.Series.to_list (Trace.Queue_trace.series qt)) in
  (* initial 0, enq->1, enq->2, dep->1, dep->0 *)
  Alcotest.(check (list (float 0.))) "occupancy history" [ 0.; 1.; 2.; 1.; 0. ]
    values;
  Alcotest.(check int) "link accessor" 7 (Link.id (Trace.Queue_trace.link qt))

let test_util_meter () =
  let sim, link, packet = rig ~buffer:None () in
  ignore (Link.send link (packet 0) : [ `Ok | `Dropped ]);
  (* one 80 ms transmission, metered from t=0 *)
  let meter = Trace.Util_meter.start link ~now:0. in
  Sim.run sim ~until:0.8;
  Alcotest.(check (float 1e-9)) "busy seconds" 0.08
    (Trace.Util_meter.busy_time meter ~now:0.8);
  Alcotest.(check (float 1e-9)) "utilization 10%" 0.1
    (Trace.Util_meter.utilization meter ~now:0.8)

let test_util_meter_window () =
  (* The meter must not count busy time before its start. *)
  let sim, link, packet = rig ~buffer:None () in
  ignore (Link.send link (packet 0) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  let meter = Trace.Util_meter.start link ~now:1. in
  Sim.run sim ~until:2.;
  Alcotest.(check (float 1e-9)) "no pre-start busy time" 0.
    (Trace.Util_meter.busy_time meter ~now:2.)

let test_util_meter_zero_width () =
  (* A zero-width window is a legal (empty) measurement, not an error:
     recorders sample metrics at the instant a meter is started. *)
  let sim, link, packet = rig ~buffer:None () in
  ignore (Link.send link (packet 0) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  let meter = Trace.Util_meter.start link ~now:1. in
  Alcotest.(check (float 0.)) "zero-width busy time" 0.
    (Trace.Util_meter.busy_time meter ~now:1.);
  Alcotest.(check (float 0.)) "zero-width utilization" 0.
    (Trace.Util_meter.utilization meter ~now:1.);
  Alcotest.check_raises "negative window still rejected"
    (Invalid_argument "Util_meter: negative measurement window") (fun () ->
      ignore (Trace.Util_meter.busy_time meter ~now:0.5 : float))

let test_drop_log () =
  let sim, link, packet = rig ~buffer:(Some 1) () in
  let log = Trace.Drop_log.create () in
  Trace.Drop_log.watch log link;
  ignore (Link.send link (packet 0) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet ~kind:Packet.Ack 1) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet 2) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  Alcotest.(check int) "two drops" 2 (Trace.Drop_log.total log);
  match Trace.Drop_log.records log with
  | [ first; second ] ->
    Alcotest.(check bool) "an ACK drop, then a data drop" true
      (first.Trace.Drop_log.kind = Packet.Ack
      && second.Trace.Drop_log.kind = Packet.Data);
    Alcotest.(check int) "first dropped seq" 1 first.Trace.Drop_log.seq;
    Alcotest.(check int) "second dropped seq" 2 second.Trace.Drop_log.seq;
    Alcotest.(check int) "link recorded" 7 first.Trace.Drop_log.link
  | _ -> Alcotest.fail "expected two records"

let test_drop_log_window () =
  let sim, link, packet = rig ~buffer:(Some 1) () in
  let log = Trace.Drop_log.create () in
  Trace.Drop_log.watch log link;
  ignore (Link.send link (packet 0) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet 1) : [ `Ok | `Dropped ]);
  (* dropped at t=0 *)
  Sim.run sim ~until:1.;
  Alcotest.(check int) "inside window" 1
    (List.length (Trace.Drop_log.in_window log ~t0:0. ~t1:0.5));
  Alcotest.(check int) "outside window" 0
    (List.length (Trace.Drop_log.in_window log ~t0:0.5 ~t1:1.))

let test_dep_log () =
  let sim, link, packet = rig ~buffer:None () in
  let dep = Trace.Dep_log.attach link in
  ignore (Link.send link (packet ~conn:1 0) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet ~conn:2 ~kind:Packet.Ack 5) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  (match Trace.Dep_log.records dep with
   | [ a; b ] ->
     Alcotest.(check int) "first out conn" 1 a.Trace.Dep_log.conn;
     Alcotest.(check (float 1e-9)) "first out at tx time" 0.08 a.Trace.Dep_log.time;
     Alcotest.(check bool) "second is the ack" true (b.Trace.Dep_log.kind = Packet.Ack);
     Alcotest.(check (float 1e-9)) "ack 8ms later" 0.088 b.Trace.Dep_log.time
   | _ -> Alcotest.fail "expected two departures");
  Alcotest.(check int) "total" 2 (Trace.Dep_log.total dep)

(* Pin the half-open [t0, t1) window semantics of every log: a record
   exactly at t0 is included, a record exactly at t1 is excluded. *)

let test_dep_log_window_boundaries () =
  let sim, link, packet = rig ~buffer:None () in
  let dep = Trace.Dep_log.attach link in
  ignore (Link.send link (packet 0) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet 1) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  (* departures at exactly 0.08 and 0.16 (two 80 ms serializations) *)
  let seqs ~t0 ~t1 =
    List.map
      (fun r -> r.Trace.Dep_log.seq)
      (Trace.Dep_log.in_window dep ~t0 ~t1)
  in
  Alcotest.(check (list int)) "record at t0 included" [ 0; 1 ]
    (seqs ~t0:0.08 ~t1:1.);
  Alcotest.(check (list int)) "record at t1 excluded" [ 0 ]
    (seqs ~t0:0.08 ~t1:0.16);
  Alcotest.(check (list int)) "zero-width window empty" []
    (seqs ~t0:0.08 ~t1:0.08)

let test_drop_log_window_boundaries () =
  let sim, link, packet = rig ~buffer:(Some 1) () in
  let log = Trace.Drop_log.create () in
  Trace.Drop_log.watch log link;
  ignore (Link.send link (packet 0) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet 1) : [ `Ok | `Dropped ]);
  (* drop recorded at exactly t=0 *)
  Sim.run sim ~until:1.;
  Alcotest.(check int) "record at t0 included" 1
    (List.length (Trace.Drop_log.in_window log ~t0:0. ~t1:0.5));
  Alcotest.(check int) "record at t1 excluded" 0
    (List.length (Trace.Drop_log.in_window log ~t0:(-1.) ~t1:0.));
  Alcotest.(check int) "zero-width window empty" 0
    (List.length (Trace.Drop_log.in_window log ~t0:0. ~t1:0.))

(* The ACK-sojourn fold counts from the [t0] it was attached with, and
   leaves out the ACKs departing at exactly [t1]. *)
let test_mean_sojourn_window_boundaries () =
  let sim, link, packet = rig ~buffer:None () in
  let dep = Trace.Dep_log.attach link in
  let from t0 = Trace.Dep_log.attach ~keep:false ~t0 link in
  let all = from 0. and at_first = from 0.008 and after_first = from 0.05 in
  ignore (Link.send link (packet ~kind:Packet.Ack 0) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet 1) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet ~kind:Packet.Ack 2) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  (* ACKs depart at 0.008 and 0.096 after sojourns of 0.008 and 0.096;
     the data packet between them is not counted *)
  let last = (List.nth (Trace.Dep_log.records dep) 2).time in
  let mean log ~t1 = Trace.Dep_log.mean_ack_sojourn log ~t1 in
  let check = Alcotest.(check (option (float 1e-9))) in
  check "every ACK" (Some 0.052) (mean all ~t1:1.);
  check "record at t0 included" (Some 0.052) (mean at_first ~t1:1.);
  check "record before t0 left out" (Some 0.096) (mean after_first ~t1:1.);
  check "record at t1 excluded" (Some 0.008) (mean all ~t1:last);
  check "empty window" None (mean after_first ~t1:last);
  Alcotest.check_raises "t1 before a counted ACK"
    (Invalid_argument "Dep_log.mean_ack_sojourn: an ACK departed after t1")
    (fun () -> ignore (mean all ~t1:0.05 : float option))

let test_cwnd_trace () =
  let sim = Sim.create () in
  let d = Topology.dumbbell sim (Topology.params ~tau:0.01 ~buffer:(Some 20) ()) in
  let config = Tcp.Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2 () in
  let conn = Tcp.Connection.create d.net config in
  let trace = Trace.Cwnd_trace.attach (Tcp.Connection.sender conn) in
  Sim.run sim ~until:10.;
  Alcotest.(check int) "conn id" 1 (Trace.Cwnd_trace.conn trace);
  Alcotest.(check bool) "cwnd samples recorded" true
    (Trace.Series.length (Trace.Cwnd_trace.cwnd trace) > 5);
  Alcotest.(check bool) "ssthresh recorded too" true
    (Trace.Series.length (Trace.Cwnd_trace.ssthresh trace) > 1);
  (* the trace follows the live value *)
  match Trace.Series.value_at (Trace.Cwnd_trace.cwnd trace) ~time:10. with
  | Some v ->
    Alcotest.(check (float 1e-6)) "last sample = live cwnd"
      (Tcp.Connection.cwnd conn) v
  | None -> Alcotest.fail "no samples"

(* ---------------- the queue series follows the model ---------------- *)

(* Random two-way dumbbells with an outage on the forward bottleneck
   (plus, sometimes, Bernoulli loss), across the three gateways.  An
   outage flush empties the queue through drops alone, so this is where
   a series fed only by enqueues and departures goes stale. *)
type qspec = {
  gateway : Discipline.kind;
  buffer : int;
  n_fwd : int;
  n_rev : int;
  outage : float * float;
  loss : float option;
}

let qspec_gen =
  let open QCheck.Gen in
  let* gateway =
    oneofl
      [ Discipline.Fifo; Discipline.Random_drop { seed = 5 };
        Discipline.Fair_queue ]
  in
  let* buffer = int_range 3 25 in
  let* n_fwd = int_range 1 3 in
  let* n_rev = int_range 0 2 in
  let* start = float_range 3. 20. in
  let* length = float_range 0.5 5. in
  let* loss = oneof [ return None; map Option.some (float_range 0.005 0.05) ] in
  return
    { gateway; buffer; n_fwd; n_rev; outage = (start, start +. length); loss }

let qspec_print s =
  Printf.sprintf "{gateway=%s; buffer=%d; fwd=%d; rev=%d; outage=[%g,%g); loss=%s}"
    (match s.gateway with
     | Discipline.Fifo -> "fifo"
     | Discipline.Random_drop _ -> "random-drop"
     | Discipline.Fair_queue -> "fair-queue")
    s.buffer s.n_fwd s.n_rev (fst s.outage) (snd s.outage)
    (match s.loss with None -> "none" | Some p -> Printf.sprintf "%g" p)

(* At every instant where a test hook on a bottleneck fired, the queue
   series holds the [Link.queue_length] that hook read.  Readings are
   compared after the run, against the last one at each instant (every
   change of occupancy fires one of these hooks), so the order in which
   the series' and the test's hooks fire does not matter. *)
let prop_queue_series_follows_model =
  QCheck.Test.make ~name:"queue series equals the link occupancy at every hook"
    ~count:40 (QCheck.make ~print:qspec_print qspec_gen) (fun s ->
      let sim = Sim.create () in
      let d =
        Topology.dumbbell sim
          (Topology.params ~gateway:s.gateway ~tau:0.01 ~buffer:(Some s.buffer) ())
      in
      let conn i (src_host, dst_host) =
        ignore
          (Tcp.Connection.create d.net
             (Tcp.Config.make ~conn:(i + 1) ~src_host ~dst_host
                ~start_time:(0.3 *. float_of_int i) ())
            : Tcp.Connection.t)
      in
      List.iteri conn
        (List.init s.n_fwd (fun _ -> (d.host1, d.host2))
        @ List.init s.n_rev (fun _ -> (d.host2, d.host1)));
      ignore
        (Faults.Plan.install d.net d.fwd ~seed:3
           (Faults.Spec.make
              ?loss:(Option.map (fun p -> Faults.Spec.Bernoulli p) s.loss)
              ~outage:{ Faults.Spec.windows = [ s.outage ]; flap = None }
              ())
          : Faults.Plan.t);
      let watch link =
        let qt = Trace.Queue_trace.attach link in
        let readings = ref [] in
        let read _ =
          readings := (Link.now link, Link.queue_length link) :: !readings
        in
        Link.on_enqueue link read;
        Link.on_depart link read;
        Link.on_drop link read;
        (qt, readings)
      in
      let watched = [ watch d.fwd; watch d.bwd ] in
      Sim.run sim ~until:30.;
      List.iter
        (fun (qt, readings) ->
          let series = Trace.Queue_trace.series qt in
          (* Newest first: the first reading of each instant is its last. *)
          let prev = ref infinity in
          List.iter
            (fun (time, qlen) ->
              if time <> !prev then begin
                prev := time;
                match Trace.Series.value_at series ~time with
                | Some v when v = float_of_int qlen -> ()
                | v ->
                  QCheck.Test.fail_reportf
                    "%s at t=%.17g: series holds %s, the link holds %d"
                    (Link.name (Trace.Queue_trace.link qt))
                    time
                    (match v with None -> "nothing" | Some v -> string_of_float v)
                    qlen
              end)
            !readings)
        watched;
      true)

let suite =
  ( "traces",
    [
      Alcotest.test_case "queue trace" `Quick test_queue_trace;
      Alcotest.test_case "util meter" `Quick test_util_meter;
      Alcotest.test_case "util meter window" `Quick test_util_meter_window;
      Alcotest.test_case "util meter zero-width window" `Quick
        test_util_meter_zero_width;
      Alcotest.test_case "drop log" `Quick test_drop_log;
      Alcotest.test_case "drop log window" `Quick test_drop_log_window;
      Alcotest.test_case "dep log" `Quick test_dep_log;
      Alcotest.test_case "dep log window boundaries" `Quick
        test_dep_log_window_boundaries;
      Alcotest.test_case "drop log window boundaries" `Quick
        test_drop_log_window_boundaries;
      Alcotest.test_case "mean sojourn window boundaries" `Quick
        test_mean_sojourn_window_boundaries;
      Alcotest.test_case "cwnd trace" `Quick test_cwnd_trace;
      QCheck_alcotest.to_alcotest prop_queue_series_follows_model;
    ] )
