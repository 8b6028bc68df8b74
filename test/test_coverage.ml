(* Coverage of the less-traveled corners: JSON reports, CSV logs,
   evicting disciplines through a live link, plot scaling, and the
   experiment registry. *)

open Engine
open Net

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- Report JSON -------------------------------------------------------- *)

let test_report_json () =
  let outcome =
    {
      Core.Report.id = "X1";
      title = "quotes \" and \\ backslashes";
      checks =
        [
          Core.Report.expect ~metric:"m" ~paper:"p" ~measured:"v" true;
          Core.Report.info ~metric:"i" ~paper:"q" ~measured:"w";
        ];
    }
  in
  let json = Core.Report.to_json outcome in
  Alcotest.(check bool) "escapes quotes" true (contains json {|quotes \"|});
  Alcotest.(check bool) "escapes backslash" true (contains json {|\\ backslashes|});
  Alcotest.(check bool) "pass true" true (contains json {|"pass":true|});
  Alcotest.(check bool) "info is null" true (contains json {|"pass":null|});
  Alcotest.(check bool) "outcome passed" true (contains json {|"passed":true|});
  let arr = Core.Report.list_to_json [ outcome; outcome ] in
  Alcotest.(check bool) "array brackets" true
    (arr.[0] = '[' && arr.[String.length arr - 1] = ']')

(* --- Export CSV variants ------------------------------------------------ *)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let rig () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~id:3 ~name:"rig" ~src:0 ~dst:1 ~bandwidth:50_000.
      ~prop_delay:0. ~buffer:(Some 1)
  in
  Link.set_deliver link (fun _ -> ());
  let packet ?(kind = Packet.Data) seq =
    {
      Packet.id = seq;
      conn = 1;
      kind;
      seq;
      size = 500;
      src = 0;
      dst = 1;
      retransmit = false;
    }
  in
  (sim, link, packet)

let test_export_dep_log () =
  let sim, link, packet = rig () in
  let dep = Trace.Dep_log.attach link in
  ignore (Link.send link (packet 0) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  let path = Filename.concat (Filename.get_temp_dir_name ()) "dep-test.csv" in
  Core.Export.dep_log_csv ~path dep;
  let lines = read_lines path in
  Alcotest.(check int) "header + 1 record" 2 (List.length lines);
  Alcotest.(check string) "header" "time,conn,kind,seq" (List.hd lines);
  Alcotest.(check bool) "record fields" true
    (contains (List.nth lines 1) "1,data,0");
  Sys.remove path

let test_export_drops () =
  let sim, link, packet = rig () in
  let drops = Trace.Drop_log.create () in
  Trace.Drop_log.watch drops link;
  ignore (Link.send link (packet 0) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet 1) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  let path = Filename.concat (Filename.get_temp_dir_name ()) "drops-test.csv" in
  Core.Export.drops_csv ~path drops;
  let lines = read_lines path in
  Alcotest.(check int) "header + 1 drop" 2 (List.length lines);
  Alcotest.(check bool) "drop record" true (contains (List.nth lines 1) "data,1,3");
  Sys.remove path

(* --- Evicting disciplines through a live link --------------------------- *)

let test_link_with_random_drop () =
  let sim = Sim.create () in
  let link =
    Link.create ~discipline:(Discipline.Random_drop { seed = 2 }) sim ~id:0
      ~name:"rd" ~src:0 ~dst:1 ~bandwidth:1e6 ~prop_delay:0. ~buffer:(Some 3)
  in
  let delivered = ref 0 in
  Link.set_deliver link (fun _ -> incr delivered);
  Alcotest.(check bool) "kind accessor" true
    (Link.discipline link = Discipline.Random_drop { seed = 2 });
  let packet seq =
    {
      Packet.id = seq;
      conn = 1;
      kind = Packet.Data;
      seq;
      size = 500;
      src = 0;
      dst = 1;
      retransmit = false;
    }
  in
  for seq = 0 to 49 do
    ignore (Link.send link (packet seq) : [ `Ok | `Dropped ])
  done;
  Sim.run sim ~until:10.;
  let c = Link.counters link in
  (* accepted arrivals = delivered; arrivals split between enq and drops,
     with evictions counted in both enq (arrival) and drop (victim) *)
  Alcotest.(check int) "everything accounted" 50
    (c.Link.enq_data + c.Link.drop_data - (c.Link.enq_data - c.Link.dep_data));
  Alcotest.(check int) "accepted = delivered" c.Link.dep_data !delivered;
  Alcotest.(check bool) "drops happened" true (c.Link.drop_data > 0);
  Alcotest.(check int) "queue drained" 0 (Link.queue_length link)

let test_link_with_fair_queue () =
  let sim = Sim.create () in
  let link =
    Link.create ~discipline:Discipline.Fair_queue sim ~id:0 ~name:"fq" ~src:0
      ~dst:1 ~bandwidth:1e9 ~prop_delay:0. ~buffer:None
  in
  let order = ref [] in
  Link.set_deliver link (fun p -> order := p.Packet.conn :: !order);
  let packet conn seq =
    {
      Packet.id = (conn * 1000) + seq;
      conn;
      kind = Packet.Data;
      seq;
      size = 500;
      src = 0;
      dst = 1;
      retransmit = false;
    }
  in
  (* conn 1 dumps a burst; conn 2's packets must not wait behind all of it *)
  for seq = 0 to 3 do
    ignore (Link.send link (packet 1 seq) : [ `Ok | `Dropped ])
  done;
  for seq = 0 to 3 do
    ignore (Link.send link (packet 2 seq) : [ `Ok | `Dropped ])
  done;
  Sim.run sim ~until:1.;
  (* conn 1's first packet went straight into service; the remaining 3+4
     are served round-robin, conn 2's surplus trailing *)
  Alcotest.(check (list int)) "round robin service"
    [ 1; 1; 2; 1; 2; 1; 2; 2 ]
    (List.rev !order)

(* --- Ascii plot scaling -------------------------------------------------- *)

let test_plot_y_max_override () =
  let s = Trace.Series.of_list [ (0., 5.) ] in
  let text = Core.Ascii_plot.render ~width:20 ~height:6 ~y_max:50. s ~t0:0. ~t1:10. in
  Alcotest.(check bool) "scale shows 50" true (contains text "50.0");
  (* the value 5 sits in the bottom fifth of a 50-high plot *)
  let lines = String.split_on_char '\n' text in
  let top_row = List.hd lines in
  Alcotest.(check bool) "top row empty" false (String.contains top_row '*')

let test_plot_empty_window () =
  (* A series starting after the window: no marks, no crash. *)
  let s = Trace.Series.of_list [ (100., 5.) ] in
  let text = Core.Ascii_plot.render ~width:20 ~height:6 s ~t0:0. ~t1:10. in
  Alcotest.(check bool) "renders without marks" false (String.contains text '*')

(* --- Experiment registry -------------------------------------------------- *)

let test_registry_complete () =
  Alcotest.(check int) "eighteen experiments" 18
    (List.length Core.Experiments.registry);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("find " ^ name) true
        (Core.Experiments.find name <> None))
    [ "fig2"; "fig3"; "fig45"; "fig67"; "fig8"; "fig9"; "conjecture";
      "buffers"; "delack"; "multihop"; "ablation"; "reno"; "cczoo"; "pacing";
      "gateways"; "collapse"; "rtt"; "formula" ];
  Alcotest.(check bool) "unknown name" true (Core.Experiments.find "nope" = None)

(* --- Runner gateway wiring ------------------------------------------------ *)

let test_runner_gateway_wiring () =
  let scenario =
    Core.Scenario.make ~name:"gw" ~tau:0.01 ~buffer:(Some 20)
      ~gateway:Net.Discipline.Fair_queue
      ~conns:[ Core.Scenario.conn Core.Scenario.Forward ]
      ~duration:30. ~warmup:10. ()
  in
  let r = Core.Runner.run scenario in
  Alcotest.(check bool) "bottleneck runs the requested discipline" true
    (Link.discipline r.dumbbell.Net.Topology.fwd = Discipline.Fair_queue);
  Alcotest.(check bool) "traffic flowed" true (r.delivered.(0) > 0)

let suite =
  ( "coverage",
    [
      Alcotest.test_case "report json" `Quick test_report_json;
      Alcotest.test_case "export dep log" `Quick test_export_dep_log;
      Alcotest.test_case "export drops" `Quick test_export_drops;
      Alcotest.test_case "link with random drop" `Quick
        test_link_with_random_drop;
      Alcotest.test_case "link with fair queue" `Quick test_link_with_fair_queue;
      Alcotest.test_case "plot y_max override" `Quick test_plot_y_max_override;
      Alcotest.test_case "plot empty window" `Quick test_plot_empty_window;
      Alcotest.test_case "experiment registry" `Quick test_registry_complete;
      Alcotest.test_case "runner gateway wiring" `Quick
        test_runner_gateway_wiring;
    ] )
