(* lib/obs: metrics registry, structured tracer, flight recorder, and the
   probe that wires them into a run.

   The integration statements that matter most:
     - the binary trace of a run decodes cleanly and its JSONL export is
       valid (parseable, monotone timestamps);
     - every count metric, read from the model's own counters, equals
       the number of matching events in the run's trace, over random
       scenarios with faults;
     - attaching the full probe does not change simulation results
       (byte-identical traces), checked over random scenarios.

   The binary encoding itself (roundtrip, torn tails) is covered in
   test_btrace.ml. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let count_occurrences haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i acc =
    if i + n > h then acc
    else if String.sub haystack i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  if n = 0 then 0 else go 0 0

(* ---------------- metrics ---------------- *)

let test_metrics_basic () =
  let reg = Obs.Metrics.create () in
  let events = ref 0 and depth = ref 0. in
  Obs.Metrics.gauge_fn reg "events" (fun () -> float_of_int !events);
  Obs.Metrics.gauge_fn reg "depth" (fun () -> !depth);
  Obs.Metrics.gauge_fn reg "derived" (fun () -> 42.5);
  events := 5;
  depth := 7.25;
  Alcotest.(check (list (pair string (float 0.))))
    "snapshot reads the gauges, in registration order"
    [ ("events", 5.); ("depth", 7.25); ("derived", 42.5) ]
    (Obs.Metrics.snapshot reg)

let test_metrics_duplicate_name () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.gauge_fn reg "x" (fun () -> 0.);
  Alcotest.check_raises "duplicate registration rejected"
    (Invalid_argument "Metrics: duplicate metric \"x\"") (fun () ->
      ignore
        (Obs.Metrics.histogram reg "x" ~bounds:[| 1. |] : Obs.Metrics.histogram))

let test_metrics_histogram () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "q" ~bounds:[| 1.; 4.; 16. |] in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 5; 100 ];
  Alcotest.(check (list (pair string (float 0.))))
    "cumulative buckets"
    [
      ("q.le_1", 2.); ("q.le_4", 3.); ("q.le_16", 4.); ("q.le_inf", 5.);
      ("q.count", 5.);
    ]
    (Obs.Metrics.snapshot reg);
  Alcotest.check_raises "empty bounds rejected"
    (Invalid_argument "Metrics.histogram: empty bounds") (fun () ->
      ignore (Obs.Metrics.histogram reg "e" ~bounds:[||] : Obs.Metrics.histogram));
  Alcotest.check_raises "non-increasing bounds rejected"
    (Invalid_argument "Metrics.histogram: bounds must be strictly increasing")
    (fun () ->
      ignore
        (Obs.Metrics.histogram reg "d" ~bounds:[| 1.; 1. |]
          : Obs.Metrics.histogram))

let test_metrics_json () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.gauge_fn reg "n" (fun () -> 7.);
  Obs.Metrics.gauge_fn reg "frac" (fun () -> 0.125);
  let json = Obs.Metrics.to_json reg in
  (match Obs.Json.parse json with
   | Error msg -> Alcotest.failf "metrics JSON does not parse: %s" msg
   | Ok v ->
     Alcotest.(check (option (float 0.)))
       "integral field" (Some 7.)
       (Option.bind (Obs.Json.member "n" v) Obs.Json.to_float);
     Alcotest.(check (option (float 0.)))
       "fractional field" (Some 0.125)
       (Option.bind (Obs.Json.member "frac" v) Obs.Json.to_float));
  Alcotest.(check bool) "integral printed without fraction" true
    (contains json "\"n\":7,")

let test_metrics_recorder () =
  let sim = Engine.Sim.create () in
  let reg = Obs.Metrics.create () in
  let ticks = ref 0 in
  Obs.Metrics.gauge_fn reg "ticks" (fun () -> float_of_int !ticks);
  Alcotest.check_raises "dt must be positive"
    (Invalid_argument "Metrics.record: dt must be positive") (fun () ->
      ignore (Obs.Metrics.record reg sim ~dt:0. : Obs.Metrics.recorder));
  let rec_ = Obs.Metrics.record reg sim ~dt:1. in
  (* bump the count at t = 0.5 and 1.5: samples at 0,1,2 see 0,1,2 *)
  ignore (Engine.Sim.at sim ~time:0.5 (fun () -> incr ticks)
      : Engine.Sim.handle);
  ignore (Engine.Sim.at sim ~time:1.5 (fun () -> incr ticks)
      : Engine.Sim.handle);
  Engine.Sim.run sim ~until:2.0;
  match Obs.Metrics.recorder_series rec_ with
  | [ ("ticks", s) ] ->
    Alcotest.(check (list (pair (float 0.) (float 0.))))
      "sampled at 0,1,2"
      [ (0., 0.); (1., 1.); (2., 2.) ]
      (Trace.Series.to_list s)
  | other ->
    Alcotest.failf "expected one recorded series, got %d" (List.length other)

(* ---------------- flight recorder ---------------- *)

(* Two hosts joined by a duplex link; [send seq] injects a data packet
   from h1 to h2. *)
let two_hosts () =
  let sim = Engine.Sim.create () in
  let net = Net.Network.create sim in
  let h1 = Net.Network.add_host net ~name:"h1" ~proc_delay:1e-4 in
  let h2 = Net.Network.add_host net ~name:"h2" ~proc_delay:1e-4 in
  let fwd, bwd =
    Net.Network.add_duplex net ~src:h1 ~dst:h2 ~bandwidth:1e6 ~prop_delay:0.01
      ~buffer:(Some 10)
  in
  Net.Network.set_route net ~node:h1 ~dst:h2 ~link:fwd;
  Net.Network.set_route net ~node:h2 ~dst:h1 ~link:bwd;
  Net.Network.register_endpoint net ~host:h2 ~conn:1 (fun _ -> ());
  let pkt seq =
    Net.Network.make_packet net ~conn:1 ~kind:Net.Packet.Data ~seq ~size:500
      ~src:h1 ~dst:h2 ~retransmit:false
  in
  let send seq = Net.Network.send_from_host net ~host:h1 (pkt seq) in
  (sim, net, fwd, pkt, send)

(* A recorder's lines, and how many it says it rendered. *)
let recent f =
  let buf = Buffer.create 256 in
  let n = Obs.Btrace.recent_jsonl f (Buffer.add_string buf) in
  (n, Buffer.contents buf)

let jsonl_lines data =
  let buf = Buffer.create 4096 in
  (match Obs.Btrace.export_jsonl data (Buffer.add_string buf) with
   | Ok (_, None) -> ()
   | Ok (_, Some (Obs.Btrace.Torn msg | Obs.Btrace.Corrupt msg))
   | Error msg ->
     Alcotest.failf "trace unreadable: %s" msg);
  List.filter_map
    (fun l -> if l = "" then None else Some (l ^ "\n"))
    (String.split_on_char '\n' (Buffer.contents buf))

let last n l =
  let drop = List.length l - n in
  List.filteri (fun i _ -> i >= drop) l

let test_flight_ring () =
  Alcotest.check_raises "capacity must be >= 1"
    (Invalid_argument "Btrace.recorder: capacity must be >= 1") (fun () ->
      ignore (Obs.Btrace.recorder 0 : Obs.Btrace.writer));
  Alcotest.check_raises "a file writer keeps no recent events"
    (Invalid_argument "Btrace.recent_jsonl: not a recorder") (fun () ->
      ignore (Obs.Btrace.recent_jsonl (Obs.Btrace.writer ignore) ignore : int));
  let f = Obs.Btrace.recorder 3 in
  Alcotest.(check (pair int string)) "empty" (0, "") (recent f);
  List.iteri
    (fun i reason -> Obs.Btrace.loss f ~time:(float_of_int i) ~conn:1 ~reason)
    [ "a"; "b"; "c"; "d"; "e" ];
  Alcotest.(check int) "every event counted" 5 (Obs.Btrace.events_written f);
  let line t reason =
    Printf.sprintf "{\"t\":%d,\"ev\":\"loss\",\"conn\":1,\"reason\":\"%s\"}\n" t
      reason
  in
  Alcotest.(check (pair int string))
    "last three, oldest first"
    (3, line 2 "c" ^ line 3 "d" ^ line 4 "e")
    (recent f)

(* Capacity 8 gives segments of 9 records of the largest kind, 720
   bytes, and an inject record takes at least 8, so a segment holds at
   most 90 of them: the 200 injects restart the segment at least twice
   before the first loss and fault intern their strings, and the 300
   mixed calls after them restart it at least once more.  After every
   call, the recorder's dump must be the tail of a file writer's export
   of the same calls: each segment restarts its clock at 0 and finds
   every def, the late strings included, in the keyframe. *)
let test_flight_restarts () =
  let _sim, _net, fwd, pkt, _send = two_hosts () in
  let capacity = 8 in
  let f = Obs.Btrace.recorder capacity in
  let binary = Buffer.create 4096 in
  let w = Obs.Btrace.writer (Buffer.add_string binary) in
  let both write = write f; write w in
  both (fun w -> Obs.Btrace.declare_link w fwd);
  both (fun w ->
      Obs.Btrace.declare_conn_meta w 1 ~start_time:0. ~flow_size:None);
  let time = ref 0. in
  let call i =
    (* Repeated times, 17-digit times and an exponent crossing. *)
    if i mod 4 <> 0 then time := !time +. 0.1 +. 0.2;
    if i = 350 then time := !time *. 1024.;
    let time = !time and p = pkt i in
    both
      (if i < 200 || i mod 3 = 0 then fun w -> Obs.Btrace.inject w ~time p
       else if i mod 3 = 1 then fun w ->
         Obs.Btrace.loss w ~time ~conn:1 ~reason:"timeout"
       else fun w ->
         Obs.Btrace.fault w ~time ~link:fwd ~label:"blackout" ~pkt:p);
    Obs.Btrace.flush w;
    let lines = jsonl_lines (Buffer.contents binary) in
    let held = min capacity (List.length lines) in
    let got = recent f in
    if got <> (held, String.concat "" (last capacity lines)) then
      Alcotest.failf "after call %d the dump holds %d events:\n%s" i (fst got)
        (snd got)
  in
  for i = 0 to 499 do
    call i
  done

(* ---------------- json ---------------- *)

let test_json_parse () =
  (match Obs.Json.parse {|{"a":[1,2.5,-3e2],"b":"x\"\n","c":null,"d":true}|}
   with
   | Error msg -> Alcotest.failf "parse failed: %s" msg
   | Ok v ->
     Alcotest.(check (option string))
       "escaped string" (Some "x\"\n")
       (Option.bind (Obs.Json.member "b" v) Obs.Json.to_string);
     (match Obs.Json.member "a" v with
      | Some (Obs.Json.List [ _; Obs.Json.Num x; Obs.Json.Num y ]) ->
        Alcotest.(check (float 0.)) "float elt" 2.5 x;
        Alcotest.(check (float 0.)) "exponent elt" (-300.) y
      | _ -> Alcotest.fail "array member missing"));
  (match Obs.Json.parse "{} garbage" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Obs.Json.parse "{\"a\":}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed object accepted"

let test_validate_jsonl () =
  (match Obs.Json.validate_jsonl "{\"t\":1}\n{\"t\":1}\n{\"t\":2.5}\n" with
   | Ok n -> Alcotest.(check int) "line count" 3 n
   | Error msg -> Alcotest.failf "valid stream rejected: %s" msg);
  (match Obs.Json.validate_jsonl "{\"t\":1}\n{\"t\":0.5}\n" with
   | Error msg ->
     Alcotest.(check bool) "names the offending line" true
       (contains msg "line 2")
   | Ok _ -> Alcotest.fail "non-monotone stream accepted");
  (match Obs.Json.validate_jsonl "{\"t\":1}\nnot json\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "garbage line accepted");
  match Obs.Json.validate_jsonl "[1,2]\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object line accepted"

let test_float_repr_spellings () =
  (* Shortest spelling that round-trips: values representable in 9
     significant digits keep the short historical form, awkward ones
     get exactly as many digits as they need — never a lossy "0.3". *)
  Alcotest.(check string) "short decimal stays short" "0.1"
    (Obs.Json.float_repr 0.1);
  Alcotest.(check string) "integral" "7" (Obs.Json.float_repr 7.);
  Alcotest.(check string) "negative zero" "-0" (Obs.Json.float_repr (-0.));
  Alcotest.(check string) "exponent form" "1e+22" (Obs.Json.float_repr 1e22);
  Alcotest.(check string) "0.1 +. 0.2 needs 17 digits"
    "0.30000000000000004"
    (Obs.Json.float_repr (0.1 +. 0.2));
  Alcotest.(check string) "1/3 round-trips" "0.33333333333333331"
    (Obs.Json.float_repr (1. /. 3.))

let prop_float_repr_roundtrip =
  let arb =
    QCheck.make
      ~print:(Printf.sprintf "%h")
      (QCheck.Gen.map Int64.float_of_bits QCheck.Gen.int64)
  in
  QCheck.Test.make ~name:"float_repr round-trips every finite float"
    ~count:2000 arb (fun f ->
      QCheck.assume (Float.is_finite f);
      Int64.bits_of_float (float_of_string (Obs.Json.float_repr f))
      = Int64.bits_of_float f)

(* The ladder [float_repr] walked before it tried %.15g first: the
   shortest of %.9g, %.12g and %.15g that round-trips, else %.17g. *)
let float_repr_ladder f =
  let spell p = Printf.sprintf "%.*g" p f in
  let round_trips p = float_of_string (spell p) = f in
  match List.find_opt round_trips [ 9; 12; 15 ] with
  | Some p -> spell p
  | None -> spell 17

let prop_float_repr_ladder =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (4, map Int64.float_of_bits int64);
          (* short decimals, which the shorter spellings keep *)
          (3, map2 (fun n e -> float_of_int n /. (10. ** float_of_int e))
                (int_range (-1_000_000) 1_000_000) (int_range 0 12));
          (* subnormals *)
          (1, map (fun m -> Int64.float_of_bits (Int64.of_int m))
                (int_range 1 0xFFFFFFF));
          (1, oneofl [ 0.; -0.; 1e22; 0.1 +. 0.2; 1. /. 3.; 5e-324;
                       Float.max_float; Float.min_float; infinity; nan ]);
        ])
  in
  QCheck.Test.make ~name:"float_repr spells as the four-step ladder"
    ~count:20_000 (QCheck.make ~print:(Printf.sprintf "%h") gen) (fun f ->
      Obs.Json.float_repr f = float_repr_ladder f)

let prop_escape_roundtrip =
  QCheck.Test.make ~name:"escape then parse returns every byte string"
    ~count:1000 QCheck.string (fun s ->
      Obs.Json.parse ("\"" ^ Obs.Json.escape s ^ "\"") = Ok (Obs.Json.Str s))

(* ---------------- probe integration ---------------- *)

let two_way_scenario ?(validate = false) () =
  Core.Scenario.make ~name:"obs-test" ~tau:0.01 ~buffer:(Some 20)
    ~conns:
      [
        Core.Scenario.conn Core.Scenario.Forward;
        Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse;
      ]
    ~duration:20. ~warmup:1. ~validate ()

let test_runner_without_obs () =
  let r = Core.Runner.run (two_way_scenario ()) in
  Alcotest.(check bool) "no probe by default" true (r.Core.Runner.obs = None)

let test_trace_exports () =
  let binary = Buffer.create (1 lsl 16) in
  let setup = Obs.Probe.setup ~btrace:(Buffer.add_string binary) () in
  let r = Core.Runner.run ~obs:setup (two_way_scenario ~validate:true ()) in
  let probe =
    match r.Core.Runner.obs with
    | Some p -> p
    | None -> Alcotest.fail "probe missing from result"
  in
  (match Core.Runner.validation_report r with
   | Some report when not (Validate.Report.is_clean report) ->
     Alcotest.failf "traced run not clean: %s" (Validate.Report.summary report)
   | _ -> ());
  (* The runner finished the probe, so the whole stream decodes with no
     torn tail; JSONL and chrome are rendered offline from the records. *)
  let export f =
    let buf = Buffer.create (1 lsl 16) in
    match f (Buffer.contents binary) (Buffer.add_string buf) with
    | Error msg -> Alcotest.failf "binary trace unreadable: %s" msg
    | Ok (_, Some (Obs.Btrace.Torn msg | Obs.Btrace.Corrupt msg)) ->
      Alcotest.failf "flushed trace stopped early: %s" msg
    | Ok (_, None) -> buf
  in
  let jsonl = export Obs.Btrace.export_jsonl in
  let chrome = export Obs.Btrace.export_chrome in
  let text = Buffer.contents jsonl in
  (* Every line parses; timestamps never go backwards; the line count is
     exactly the number of events the tracer claims to have emitted. *)
  (match Obs.Json.validate_jsonl text with
   | Ok lines ->
     Alcotest.(check int) "JSONL line count = events emitted"
       (Obs.Probe.events_traced probe) lines
   | Error msg -> Alcotest.failf "JSONL trace invalid: %s" msg);
  Alcotest.(check bool) "dispatched events metric is live" true
    (match List.assoc_opt "sim.events" (Obs.Probe.final_metrics probe) with
     | Some v -> v > 0.
     | None -> false);
  (* The Chrome rendering of the same run is one valid JSON value. *)
  match Obs.Json.parse (Buffer.contents chrome) with
  | Error msg -> Alcotest.failf "chrome trace invalid: %s" msg
  | Ok v ->
    (match Obs.Json.member "traceEvents" v with
     | Some (Obs.Json.List records) ->
       Alcotest.(check bool) "chrome has records" true
         (List.length records > Obs.Probe.events_traced probe / 2)
     | _ -> Alcotest.fail "chrome traceEvents missing")

let test_flight_dump_on_violation () =
  let sim, net, fwd, pkt, send = two_hosts () in
  let report = Validate.Report.create () in
  let conservation = Validate.Conservation.create report in
  Net.Network.on_inject net (fun p ->
      Validate.Conservation.observe_inject conservation ~time:(Engine.Sim.now sim)
        p);
  Net.Network.on_deliver net (fun p ->
      Validate.Conservation.observe_deliver conservation
        ~time:(Engine.Sim.now sim) p);
  let dump = Buffer.create 1024 in
  let setup =
    Obs.Probe.setup ~metrics:false ~flight:8
      ~flight_sink:(Buffer.add_string dump) ()
  in
  let probe = Obs.Probe.attach setup ~net ~conns:[] in
  Obs.Probe.arm_report probe report;
  (* A legitimate packet first, so the recorder has history to dump. *)
  send 0;
  (* Then a packet that reaches the endpoint without ever being injected:
     conservation must flag the delivery, which must dump the recorder. *)
  (match Net.Link.send fwd (pkt 99) with
   | `Ok -> ()
   | `Dropped -> Alcotest.fail "rogue packet not accepted");
  Engine.Sim.run_to_completion sim;
  Alcotest.(check bool) "a violation was recorded" true
    (not (Validate.Report.is_clean report));
  let out = Buffer.contents dump in
  Alcotest.(check bool) "flight dump banner names the checker" true
    (contains out "=== flight recorder: validate: conservation");
  Alcotest.(check bool) "dump carries trace events" true
    (contains out "\"ev\":\"enqueue\"");
  Alcotest.(check int) "dumped exactly once" 1
    (count_occurrences out "=== flight recorder:")

(* ---------------- observation changes nothing ---------------- *)

open QCheck

type spec = {
  tau : float;
  buffer : int option;
  n_fwd : int;
  n_rev : int;
  maxwnd : int;
  delayed_ack : bool;
  gateway : Net.Discipline.kind;
  cc : string;
  flow_size : int option;
  faults : Faults.Spec.t;
}

(* Any subset of loss, duplication, jitter and an outage window on the
   forward bottleneck, including none. *)
let faults_gen =
  let open Gen in
  let maybe g = oneof [ return None; map Option.some g ] in
  let* loss = maybe (float_range 0.005 0.05) in
  let* duplicate = maybe (float_range 0.005 0.03) in
  let* jitter = maybe (float_range 0.001 0.01) in
  let* outage = maybe (float_range 12. 30.) in
  return
    (Faults.Spec.make
       ?loss:(Option.map (fun p -> Faults.Spec.Bernoulli p) loss)
       ?duplicate
       ?jitter:
         (Option.map
            (fun bound -> { Faults.Spec.bound; preserve_order = true })
            jitter)
       ?outage:
         (Option.map
            (fun start ->
              { Faults.Spec.windows = [ (start, start +. 3.) ]; flap = None })
            outage)
       ())

let spec_gen =
  let open Gen in
  let* tau = oneofl [ 0.01; 0.1; 1.0 ] in
  let* buffer = oneof [ return None; map (fun b -> Some b) (int_range 3 30) ] in
  let* n_fwd = int_range 1 2 in
  let* n_rev = int_range 0 2 in
  let* maxwnd = int_range 8 32 in
  let* delayed_ack = bool in
  let* gateway =
    oneofl
      [ Net.Discipline.Fifo; Net.Discipline.Random_drop { seed = 11 };
        Net.Discipline.Fair_queue ]
  in
  let* cc = oneofl [ "tahoe"; "reno"; "newreno" ] in
  let* flow_size = oneof [ return None; map Option.some (int_range 20 400) ] in
  let* faults = faults_gen in
  return
    { tau; buffer; n_fwd; n_rev; maxwnd; delayed_ack; gateway; cc; flow_size;
      faults }

let spec_print s =
  Printf.sprintf
    "{tau=%g; buffer=%s; fwd=%d; rev=%d; maxwnd=%d; delack=%b; gateway=%s; \
     cc=%s; flow_size=%s; faults=%s}"
    s.tau
    (match s.buffer with None -> "inf" | Some b -> string_of_int b)
    s.n_fwd s.n_rev s.maxwnd s.delayed_ack
    (match s.gateway with
     | Net.Discipline.Fifo -> "fifo"
     | Net.Discipline.Random_drop _ -> "random-drop"
     | Net.Discipline.Fair_queue -> "fair-queue")
    s.cc
    (match s.flow_size with None -> "inf" | Some n -> string_of_int n)
    (Faults.Spec.to_string s.faults)

let scenario_of_spec (s : spec) =
  let open Core.Scenario in
  let conns dir n =
    List.init n (fun _ ->
        conn ~cc:(Tcp.Cc.spec s.cc) ~maxwnd:s.maxwnd
          ~delayed_ack:s.delayed_ack ~flow_size:s.flow_size dir)
  in
  make ~name:"obs-prop" ~tau:s.tau ~buffer:s.buffer ~gateway:s.gateway
    ~conns:(stagger ~step:1.5 (conns Forward s.n_fwd @ conns Reverse s.n_rev))
    ~duration:40. ~warmup:10.
    ~faults:
      (if Faults.Spec.is_noop s.faults then []
       else [ (Fwd_bottleneck, s.faults) ])
    ()

let series_bytes s =
  let buf = Buffer.create 4096 in
  Trace.Series.iter s ~f:(fun ~time ~value ->
      Buffer.add_string buf (Printf.sprintf "%.17g:%.17g;" time value));
  Buffer.contents buf

let result_fingerprint (r : Core.Runner.result) =
  String.concat "|"
    (Printf.sprintf "%.17g:%.17g" r.util_fwd r.util_bwd
     :: (Array.to_list r.delivered |> List.map string_of_int)
    @ [
        string_of_int (Trace.Drop_log.total r.drops);
        series_bytes (Trace.Queue_trace.series r.q1);
        series_bytes (Trace.Queue_trace.series r.q2);
      ]
    @ (Array.to_list r.cwnds
      |> List.map (fun t -> series_bytes (Trace.Cwnd_trace.cwnd t))))

let prop_observation_transparent =
  Test.make ~name:"full probe never changes simulation results" ~count:25
    (QCheck.make ~print:spec_print spec_gen)
    (fun s ->
      let scenario = scenario_of_spec s in
      let bare = Core.Runner.run ~logs:[ Cwnd ] scenario in
      let sink (_ : string) = () in
      let observed =
        Core.Runner.run ~logs:[ Cwnd ]
          ~obs:
            (Obs.Probe.setup ~series_dt:1.0 ~btrace:sink ~flight:128
               ~flowstats:true ())
          scenario
      in
      let a = result_fingerprint bare and b = result_fingerprint observed in
      if a <> b then
        Test.fail_reportf "traced run diverged from bare run on %s"
          (spec_print s);
      true)

(* Every count metric equals the number of matching events in the same
   run's decoded binary trace: per link, per connection and on the
   network. *)
let prop_counts_match_trace =
  Test.make ~name:"every count metric equals its trace event count" ~count:30
    (QCheck.make ~print:spec_print spec_gen)
    (fun s ->
      let binary = Buffer.create (1 lsl 16) in
      let r =
        Core.Runner.run
          ~obs:(Obs.Probe.setup ~btrace:(Buffer.add_string binary) ())
          (scenario_of_spec s)
      in
      let probe = Option.get r.Core.Runner.obs in
      let events =
        match Obs.Btrace.read (Buffer.contents binary) with
        | Ok { Obs.Btrace.items; torn = None; _ } ->
          List.filter_map
            (function Obs.Btrace.Event (_, ev) -> Some ev | _ -> None)
            items
        | Ok { torn = Some msg; _ } | Error msg ->
          Test.fail_reportf "trace unreadable: %s" msg
      in
      let metrics = Obs.Probe.final_metrics probe in
      let sum f = List.fold_left (fun acc ev -> acc + f ev) 0 events in
      let count p = sum (fun ev -> if p ev then 1 else 0) in
      let check name expected =
        match List.assoc_opt name metrics with
        | Some v when int_of_float v = expected -> ()
        | Some v ->
          Test.fail_reportf "%s = %g but the trace has %d" name v expected
        | None -> Test.fail_reportf "metric %s missing" name
      in
      let open Obs.Btrace in
      check "net.injected" (count (function Inject _ -> true | _ -> false));
      check "net.delivered" (count (function Deliver _ -> true | _ -> false));
      List.iter
        (fun link ->
          let name = Net.Link.name link in
          let on (l : link) = l.link_name = name in
          let pfx = "link." ^ name in
          check (pfx ^ ".enq")
            (count (function Enqueue { link; _ } -> on link | _ -> false));
          check (pfx ^ ".drop")
            (count (function Drop { link; _ } -> on link | _ -> false));
          check (pfx ^ ".dep")
            (count (function Depart { link; _ } -> on link | _ -> false));
          check (pfx ^ ".dep_bytes")
            (sum (function
              | Depart { link; pkt; _ } when on link -> pkt.size
              | _ -> 0));
          check (pfx ^ ".faults")
            (count (function Fault { link; _ } -> on link | _ -> false)))
        (Net.Network.links r.Core.Runner.dumbbell.Net.Topology.net);
      Array.iteri
        (fun i _ ->
          let cid = i + 1 in
          let pfx = Printf.sprintf "conn.%d" cid in
          let acks p =
            count (function
              | Ack_tx { conn; delayed; dup; _ } ->
                conn = cid && p ~delayed ~dup
              | _ -> false)
          in
          let losses p =
            count (function
              | Loss { conn; reason } -> conn = cid && p reason
              | _ -> false)
          in
          check (pfx ^ ".sends")
            (count (function Send { conn; _ } -> conn = cid | _ -> false));
          check (pfx ^ ".acks") (acks (fun ~delayed:_ ~dup:_ -> true));
          check (pfx ^ ".delayed_acks") (acks (fun ~delayed ~dup:_ -> delayed));
          check (pfx ^ ".dup_acks") (acks (fun ~delayed:_ ~dup -> dup));
          check (pfx ^ ".cwnd_cuts") (losses (fun _ -> true));
          check (pfx ^ ".timeouts") (losses (( = ) "timeout"));
          check (pfx ^ ".fast_rexmt") (losses (( = ) "dup_ack")))
        r.Core.Runner.conns;
      true)

(* The trace writer and the flight recorder are two writers on the same
   hooks.  The recorder's dump must be the tail of the JSONL export of
   the same run's trace, under a banner that counts every event. *)
let prop_ring_is_trace_tail =
  Test.make ~name:"flight ring holds the tail of the binary trace" ~count:20
    (QCheck.make
       ~print:(fun (s, n) -> Printf.sprintf "%s, ring %d" (spec_print s) n)
       Gen.(pair spec_gen (int_range 1 400)))
    (fun (s, n) ->
      let binary = Buffer.create (1 lsl 16) in
      let r =
        Core.Runner.run
          ~obs:
            (Obs.Probe.setup ~metrics:false ~btrace:(Buffer.add_string binary)
               ~flight:n ())
          (scenario_of_spec s)
      in
      let probe = Option.get r.Core.Runner.obs in
      let lines = jsonl_lines (Buffer.contents binary) in
      let total = List.length lines in
      let expected =
        Printf.sprintf "=== flight recorder: tail (last %d of %d events) ===\n"
          (min n total) total
        ^ String.concat "" (last n lines)
        ^ "=== end flight recorder ===\n"
      in
      if Obs.Probe.flight_text probe ~reason:"tail" <> Some expected then
        Test.fail_reportf "the dump is not the trace's last %d events"
          (min n total);
      true)

(* Recording builds no values: per event, a flight-only run allocates
   what a trace-only run does, to 0.01 minor words, at the CI smoke's
   size and at a size whose segments restart every few hundred events,
   each restart's first time delta, measured from 0, taking the
   writer's wide path.  A plain copy of each event costs some 20 words
   more. *)
let test_flight_allocation () =
  let scenario =
    Core.Scenario.make ~name:"flight-words" ~tau:0.01 ~buffer:(Some 20)
      ~conns:
        (Core.Scenario.stagger ~step:1.0
           [ Core.Scenario.conn Core.Scenario.Forward;
             Core.Scenario.conn Core.Scenario.Reverse ])
      ~duration:500. ~warmup:200. ()
  in
  let words setup =
    ignore (Core.Runner.run ~obs:(setup ()) scenario : Core.Runner.result);
    let before = Gc.minor_words () in
    let r = Core.Runner.run ~obs:(setup ()) scenario in
    (Gc.minor_words () -. before)
    /. float_of_int
         (Engine.Sim.events_run (Net.Network.sim r.dumbbell.Net.Topology.net))
  in
  let trace =
    words (fun () -> Obs.Probe.setup ~metrics:false ~btrace:ignore ())
  in
  List.iter
    (fun n ->
      let flight =
        words (fun () -> Obs.Probe.setup ~metrics:false ~flight:n ())
      in
      if flight > trace +. 0.01 then
        Alcotest.failf
          "a flight-only run at N = %d allocates %.3f minor words per event, \
           a trace-only run %.3f (bound: 0.01 more)"
          n flight trace)
    [ 64; 4096 ]

let suite =
  ( "obs",
    [
      Alcotest.test_case "metrics: gauges, snapshot order" `Quick
        test_metrics_basic;
      Alcotest.test_case "metrics: duplicate names rejected" `Quick
        test_metrics_duplicate_name;
      Alcotest.test_case "metrics: histogram buckets" `Quick
        test_metrics_histogram;
      Alcotest.test_case "metrics: deterministic JSON" `Quick test_metrics_json;
      Alcotest.test_case "metrics: periodic recorder" `Quick
        test_metrics_recorder;
      Alcotest.test_case "flight: bounded ring and dump format" `Quick
        test_flight_ring;
      Alcotest.test_case "flight: segments restart with the keyframe" `Quick
        test_flight_restarts;
      Alcotest.test_case "json: parser round-trips traces" `Quick
        test_json_parse;
      Alcotest.test_case "json: JSONL validation" `Quick test_validate_jsonl;
      Alcotest.test_case "json: shortest round-trip float spellings" `Quick
        test_float_repr_spellings;
      QCheck_alcotest.to_alcotest prop_float_repr_roundtrip;
      QCheck_alcotest.to_alcotest prop_float_repr_ladder;
      QCheck_alcotest.to_alcotest prop_escape_roundtrip;
      Alcotest.test_case "runner: no probe unless requested" `Quick
        test_runner_without_obs;
      Alcotest.test_case "probe: binary trace exports valid JSONL and Chrome"
        `Quick test_trace_exports;
      Alcotest.test_case "probe: flight recorder dumps on violation" `Quick
        test_flight_dump_on_violation;
      QCheck_alcotest.to_alcotest prop_observation_transparent;
      QCheck_alcotest.to_alcotest prop_counts_match_trace;
      QCheck_alcotest.to_alcotest prop_ring_is_trace_tail;
      Alcotest.test_case "flight: allocates no more per event than a trace"
        `Quick test_flight_allocation;
    ] )
