(* Scenario, Report, Ascii_plot, Export, Topology params. *)

let test_scenario_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "no conns" true
    (raises (fun () ->
         Core.Scenario.make ~name:"x" ~tau:1. ~buffer:None ~conns:[] ()));
  Alcotest.(check bool) "duration <= warmup" true
    (raises (fun () ->
         Core.Scenario.make ~name:"x" ~tau:1. ~buffer:None
           ~conns:[ Core.Scenario.conn Core.Scenario.Forward ]
           ~duration:10. ~warmup:10. ()));
  (* Each non-finite field is refused by name at construction, not by a
     timer or an analysis after the run. *)
  let refused field ?(tau = 1.) ?duration ?warmup ?sample_dt () =
    match
      Core.Scenario.make ~name:"x" ~tau ~buffer:None
        ~conns:[ Core.Scenario.conn Core.Scenario.Forward ]
        ?duration ?warmup ?sample_dt ()
    with
    | _ -> Alcotest.failf "%s: accepted" field
    | exception Invalid_argument msg ->
      let prefix = "Scenario.make: " ^ field ^ " must be" in
      if not (String.starts_with ~prefix msg) then
        Alcotest.failf "%s: %S does not name it" field msg
  in
  refused "tau" ~tau:Float.nan ();
  refused "tau" ~tau:Float.infinity ();
  refused "duration" ~duration:Float.infinity ();
  refused "duration" ~duration:Float.nan ();
  refused "warmup" ~warmup:Float.nan ();
  refused "sample_dt" ~sample_dt:Float.nan ();
  refused "sample_dt" ~sample_dt:Float.infinity ()

let test_scenario_pipe () =
  let s tau =
    Core.Scenario.make ~name:"x" ~tau ~buffer:None
      ~conns:[ Core.Scenario.conn Core.Scenario.Forward ]
      ()
  in
  Alcotest.(check (float 1e-9)) "small pipe" 0.125 (Core.Scenario.pipe (s 0.01));
  Alcotest.(check (float 1e-9)) "large pipe" 12.5 (Core.Scenario.pipe (s 1.0));
  Alcotest.(check (float 1e-9)) "data tx" 0.08 Core.Scenario.data_tx

let test_scenario_stagger () =
  let specs =
    Core.Scenario.stagger ~step:2.
      [
        Core.Scenario.conn Core.Scenario.Forward;
        Core.Scenario.conn Core.Scenario.Reverse;
        Core.Scenario.conn ~start_time:1. Core.Scenario.Forward;
      ]
  in
  Alcotest.(check (list (float 1e-9))) "start times" [ 0.; 2.; 5. ]
    (List.map (fun c -> c.Core.Scenario.start_time) specs)

let test_fixed_conn_spec () =
  let c = Core.Scenario.fixed_conn ~window:30 Core.Scenario.Reverse in
  Alcotest.(check bool) "no loss detection" false c.Core.Scenario.loss_detection;
  (match c.Core.Scenario.cc with
   | { Tcp.Cc.name = "fixed"; params = [ ("w", 30.) ] } -> ()
   | s -> Alcotest.failf "expected fixed:w=30, got %s" (Tcp.Cc.spec_to_string s));
  Alcotest.(check bool) "reverse" true (c.Core.Scenario.dir = Core.Scenario.Reverse)

let test_report_checks () =
  let pass = Core.Report.in_band ~metric:"m" ~paper:"p" ~value:0.5 ~lo:0. ~hi:1. in
  let fail = Core.Report.in_band ~metric:"m" ~paper:"p" ~value:2. ~lo:0. ~hi:1. in
  let inf = Core.Report.info ~metric:"m" ~paper:"p" ~measured:"x" in
  Alcotest.(check bool) "pass" true (pass.Core.Report.pass = Some true);
  Alcotest.(check bool) "fail" true (fail.Core.Report.pass = Some false);
  Alcotest.(check bool) "info" true (inf.Core.Report.pass = None);
  let outcome = { Core.Report.id = "T"; title = "t"; checks = [ pass; inf ] } in
  Alcotest.(check bool) "all passed ignores info" true
    (Core.Report.all_passed outcome);
  let outcome_bad = { outcome with Core.Report.checks = [ pass; fail ] } in
  Alcotest.(check bool) "failure detected" false
    (Core.Report.all_passed outcome_bad);
  Alcotest.(check int) "failed list" 1
    (List.length (Core.Report.failed_checks outcome_bad));
  Alcotest.(check bool) "summary mentions verdict" true
    (String.length (Core.Report.summary_line outcome) > 0)

let test_report_render () =
  let outcome =
    {
      Core.Report.id = "X";
      title = "demo";
      checks =
        [ Core.Report.expect ~metric:"a" ~paper:"b" ~measured:"c" true ];
    }
  in
  let text = Format.asprintf "%a" Core.Report.pp outcome in
  Alcotest.(check bool) "has header" true
    (String.length text > 0
    && String.sub text 0 7 = "=== X: ");
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "verdict printed" true (contains text "ok")

let test_ascii_plot_dimensions () =
  let s = Trace.Series.of_list [ (0., 0.); (5., 10.); (10., 5.) ] in
  let text = Core.Ascii_plot.render ~width:40 ~height:8 s ~t0:0. ~t1:10. in
  let lines = String.split_on_char '\n' text in
  (* 8 data rows + axis + time labels + trailing newline *)
  Alcotest.(check bool) "row count" true (List.length lines >= 10);
  Alcotest.(check bool) "has marks" true (String.contains text '*')

let test_ascii_plot_pair_overlap () =
  let a = Trace.Series.of_list [ (0., 5.) ] in
  let b = Trace.Series.of_list [ (0., 5.) ] in
  let text =
    Core.Ascii_plot.render_pair ~width:20 ~height:5 ~labels:("a", "b") a b
      ~t0:0. ~t1:10.
  in
  Alcotest.(check bool) "overlap marked" true (String.contains text '#')

let test_ascii_plot_errors () =
  let s = Trace.Series.of_list [ (0., 1.) ] in
  let raises f = try ignore (f () : string); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "too small" true
    (raises (fun () -> Core.Ascii_plot.render ~width:2 ~height:1 s ~t0:0. ~t1:1.))

let test_export_csv () =
  let dir = Filename.temp_file "repro" "" in
  Sys.remove dir;
  let s = Trace.Series.of_list [ (0., 1.); (1., 2.) ] in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "series-test.csv" in
  Core.Export.series_csv ~path s;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "header + 2 rows" 3 (List.length !lines);
  Alcotest.(check string) "header" "time,value"
    (List.nth (List.rev !lines) 0);
  Sys.remove path

let test_export_run () =
  let scenario =
    Core.Scenario.make ~name:"exp" ~tau:0.01 ~buffer:(Some 20)
      ~conns:[ Core.Scenario.conn Core.Scenario.Forward ]
      ~duration:20. ~warmup:5. ()
  in
  let r = Core.Runner.run ~logs:Core.Export.logs scenario in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "repro-export" in
  let files = Core.Export.run_csv ~dir ~prefix:"t" r in
  (* q1, q2, one cwnd, drops *)
  Alcotest.(check int) "file count" 4 (List.length files);
  List.iter (fun f -> Alcotest.(check bool) f true (Sys.file_exists f)) files;
  List.iter Sys.remove files

(* Every float a run's CSV dump writes parses back to the live value bit
   for bit: fractional congestion-avoidance windows included, which a
   six-significant-digit format would round. *)
let test_export_roundtrip () =
  let scenario =
    Core.Scenario.make ~name:"exp-rt" ~tau:0.01 ~buffer:(Some 20)
      ~conns:
        [ Core.Scenario.conn Core.Scenario.Forward;
          Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse ]
      ~duration:30. ~warmup:5. ()
  in
  let r = Core.Runner.run ~logs:Core.Export.logs scenario in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "repro-export-rt" in
  let files = Core.Export.run_csv ~dir ~prefix:"rt" r in
  let rows name =
    let ic = open_in (Filename.concat dir ("rt-" ^ name)) in
    let lines = ref [] in
    (try
       while true do
         lines := String.split_on_char ',' (input_line ic) :: !lines
       done
     with End_of_file -> close_in ic);
    List.tl (List.rev !lines)
  in
  let bits = Int64.bits_of_float in
  let check_series name series =
    let parsed =
      List.map
        (function
          | [ t; v ] -> (float_of_string t, float_of_string v)
          | _ -> Alcotest.fail (name ^ ": malformed row"))
        (rows name)
    in
    let live = Trace.Series.to_list series in
    Alcotest.(check int) (name ^ " rows") (List.length live) (List.length parsed);
    Alcotest.(check bool) (name ^ " bit-exact") true
      (List.for_all2
         (fun (t, v) (t', v') -> bits t = bits t' && bits v = bits v')
         live parsed)
  in
  check_series "q1.csv" (Trace.Queue_trace.series r.q1);
  check_series "q2.csv" (Trace.Queue_trace.series r.q2);
  Array.iteri
    (fun i tr ->
      check_series (Printf.sprintf "cwnd%d.csv" (i + 1)) (Trace.Cwnd_trace.cwnd tr))
    r.cwnds;
  Alcotest.(check bool) "a fractional window was written" true
    (List.exists
       (fun (_, v) -> Float.of_int (Float.to_int v) <> v)
       (Trace.Series.to_list (Trace.Cwnd_trace.cwnd r.cwnds.(0))));
  let drops = Trace.Drop_log.records r.drops in
  let parsed = rows "drops.csv" in
  Alcotest.(check int) "drop rows" (List.length drops) (List.length parsed);
  List.iter2
    (fun (d : Trace.Drop_log.record) row ->
      match row with
      | [ t; conn; kind; seq; link ] ->
        Alcotest.(check bool) "drop time bit-exact" true
          (bits d.time = bits (float_of_string t));
        Alcotest.(check (list int)) "drop fields"
          [ d.conn; d.seq; d.link ]
          [ int_of_string conn; int_of_string seq; int_of_string link ];
        Alcotest.(check string) "drop kind" (Net.Packet.kind_to_string d.kind) kind
      | _ -> Alcotest.fail "drops.csv: malformed row")
    drops parsed;
  List.iter Sys.remove files

let test_topology_params () =
  let p = Net.Topology.params ~tau:0.5 ~buffer:(Some 7) () in
  Alcotest.(check (float 1e-9)) "bottleneck bw" 50_000. Net.Topology.bottleneck_bw;
  Alcotest.(check (float 1e-9)) "tau" 0.5 p.Net.Topology.tau;
  Alcotest.(check (option int)) "buffer" (Some 7) p.Net.Topology.buffer;
  Alcotest.(check (float 1e-9)) "host proc" 0.0001 Net.Topology.proc_delay

let test_dumbbell_structure () =
  let sim = Engine.Sim.create () in
  let d = Net.Topology.dumbbell sim (Net.Topology.params ~tau:0.1 ~buffer:(Some 20) ()) in
  Alcotest.(check int) "4 nodes" 4 (Net.Network.node_count d.Net.Topology.net);
  (* 2 bottleneck + 2x2 host links *)
  Alcotest.(check int) "6 simplex links" 6
    (List.length (Net.Network.links d.Net.Topology.net));
  Alcotest.(check (float 1e-9)) "bottleneck prop" 0.1
    (Net.Link.prop_delay d.Net.Topology.fwd);
  Alcotest.(check bool) "fwd joins the switches" true
    (Net.Link.src d.Net.Topology.fwd = d.Net.Topology.switch1
    && Net.Link.dst d.Net.Topology.fwd = d.Net.Topology.switch2)

(* Frozen vector of the Figure-1 dumbbell: the record's node ids, every
   node in id order, every link in id order with all its parameters
   (floats in %h, so any bit shows), and every installed route. *)
let dumbbell_vector (p : Net.Topology.params) =
  let d = Net.Topology.dumbbell (Engine.Sim.create ()) p in
  let net = d.Net.Topology.net in
  let n = Net.Network.node_count net in
  let ids = List.init n Fun.id in
  let node id =
    Printf.sprintf "node %d %s %s" id (Net.Network.node_name net id)
      (match Net.Network.node_kind net id with
       | Net.Network.Host -> "host"
       | Net.Network.Switch -> "switch")
  in
  let link l =
    Printf.sprintf "link %d %s %d->%d bw=%h delay=%h buffer=%s %s"
      (Net.Link.id l) (Net.Link.name l) (Net.Link.src l) (Net.Link.dst l)
      (Net.Link.bandwidth l) (Net.Link.prop_delay l)
      (match Net.Link.capacity l with
       | None -> "inf"
       | Some c -> string_of_int c)
      (match Net.Link.discipline l with
       | Net.Discipline.Random_drop { seed } ->
         Printf.sprintf "random-drop:%d" seed
       | k -> Net.Discipline.kind_to_string k)
  in
  let routes src =
    List.filter_map
      (fun dst ->
        Option.map
          (fun l -> Printf.sprintf "route %d->%d link %d" src dst (Net.Link.id l))
          (Net.Network.route net ~node:src ~dst))
      ids
  in
  Printf.sprintf "record host1=%d host2=%d switch1=%d switch2=%d fwd=%d bwd=%d"
    d.Net.Topology.host1 d.Net.Topology.host2 d.Net.Topology.switch1
    d.Net.Topology.switch2
    (Net.Link.id d.Net.Topology.fwd)
    (Net.Link.id d.Net.Topology.bwd)
  :: (List.map node ids
     @ List.map link (Net.Network.links net)
     @ List.concat_map routes ids)

let expected_dumbbell ~delay ~buffer ~gateway =
  [
    "record host1=2 host2=3 switch1=0 switch2=1 fwd=0 bwd=1";
    "node 0 sw1 switch";
    "node 1 sw2 switch";
    "node 2 host1 host";
    "node 3 host2 host";
    Printf.sprintf "link 0 sw1->sw2 0->1 bw=0x1.86ap+15 delay=%s buffer=%s %s"
      delay buffer gateway;
    Printf.sprintf "link 1 sw2->sw1 1->0 bw=0x1.86ap+15 delay=%s buffer=%s %s"
      delay buffer gateway;
    "link 2 host1->sw1 2->0 bw=0x1.312dp+23 delay=0x1.a36e2eb1c432dp-14 buffer=inf fifo";
    "link 3 sw1->host1 0->2 bw=0x1.312dp+23 delay=0x1.a36e2eb1c432dp-14 buffer=inf fifo";
    "link 4 host2->sw2 3->1 bw=0x1.312dp+23 delay=0x1.a36e2eb1c432dp-14 buffer=inf fifo";
    "link 5 sw2->host2 1->3 bw=0x1.312dp+23 delay=0x1.a36e2eb1c432dp-14 buffer=inf fifo";
    "route 0->2 link 3";
    "route 0->3 link 0";
    "route 1->2 link 1";
    "route 1->3 link 5";
    "route 2->3 link 2";
    "route 3->2 link 4";
  ]

let test_dumbbell_frozen () =
  let check name p ~delay ~buffer ~gateway =
    Alcotest.(check (list string)) name
      (expected_dumbbell ~delay ~buffer ~gateway)
      (dumbbell_vector p)
  in
  check "fifo, 20 packets"
    (Net.Topology.params ~tau:0.1 ~buffer:(Some 20) ())
    ~delay:"0x1.999999999999ap-4" ~buffer:"20" ~gateway:"fifo";
  check "random drop, infinite"
    (Net.Topology.params ~gateway:(Net.Discipline.Random_drop { seed = 7 })
       ~tau:1.0 ~buffer:None ())
    ~delay:"0x1p+0" ~buffer:"inf" ~gateway:"random-drop:7";
  check "fair queueing, 5 packets"
    (Net.Topology.params ~gateway:Net.Discipline.Fair_queue ~tau:0.01
       ~buffer:(Some 5) ())
    ~delay:"0x1.47ae147ae147bp-7" ~buffer:"5" ~gateway:"fair-queue"

let test_chain_structure () =
  let sim = Engine.Sim.create () in
  let c =
    Net.Topology.chain sim (Net.Topology.params ~tau:0.01 ~buffer:(Some 30) ())
      ~num_switches:4
  in
  Alcotest.(check int) "hosts" 4 (Array.length c.Net.Topology.hosts);
  Alcotest.(check int) "trunks" 3 (Array.length c.Net.Topology.trunks);
  (* 3 duplex trunks + 4 duplex host links = 14 simplex links *)
  Alcotest.(check int) "links" 14 (List.length (Net.Network.links c.Net.Topology.cnet));
  let c =
    Net.Topology.chain sim (Net.Topology.params ~tau:0.01 ~buffer:None ())
      ~num_switches:12
  in
  let name id = Net.Network.node_name c.Net.Topology.cnet id in
  Alcotest.(check (list string)) "names past nine"
    [ "sw1"; "sw9"; "sw10"; "sw12"; "host10"; "host12" ]
    (List.map name
       [ c.switches.(0); c.switches.(8); c.switches.(9); c.switches.(11);
         c.hosts.(9); c.hosts.(11) ])

let suite =
  ( "core",
    [
      Alcotest.test_case "scenario validation" `Quick test_scenario_validation;
      Alcotest.test_case "scenario pipe" `Quick test_scenario_pipe;
      Alcotest.test_case "scenario stagger" `Quick test_scenario_stagger;
      Alcotest.test_case "fixed conn spec" `Quick test_fixed_conn_spec;
      Alcotest.test_case "report checks" `Quick test_report_checks;
      Alcotest.test_case "report render" `Quick test_report_render;
      Alcotest.test_case "ascii plot dimensions" `Quick
        test_ascii_plot_dimensions;
      Alcotest.test_case "ascii plot overlap" `Quick test_ascii_plot_pair_overlap;
      Alcotest.test_case "ascii plot errors" `Quick test_ascii_plot_errors;
      Alcotest.test_case "export csv" `Quick test_export_csv;
      Alcotest.test_case "export run" `Quick test_export_run;
      Alcotest.test_case "topology params" `Quick test_topology_params;
      Alcotest.test_case "dumbbell structure" `Quick test_dumbbell_structure;
      Alcotest.test_case "dumbbell frozen vector" `Quick test_dumbbell_frozen;
      Alcotest.test_case "chain structure" `Quick test_chain_structure;
      Alcotest.test_case "export round-trips bit-exact" `Quick
        test_export_roundtrip;
    ] )
