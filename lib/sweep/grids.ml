(* The named parameter grids behind `netsim sweep`, `bench sweep`, the
   phase-diagram / mode-atlas examples, and the CI determinism smoke.

   Each grid builds its points on demand — building them runs no
   simulation — and every point's scenario fully determines its result
   (see {!Driver} on determinism). *)

let fmt = Printf.sprintf

type spec = {
  name : string;
  title : string;
  points : unit -> Driver.point list;
}

(* ------------------------------------------------------------------ *)
(* Fig-8/9: fixed windows 30/25 across bottleneck buffer sizes          *)
(* ------------------------------------------------------------------ *)

(* The paper runs Figures 8-9 with infinite buffers; sweeping the buffer
   maps how the two-way fixed-window cycle degrades once the switch can
   no longer hold the full w1 + w2 burst (Q1 reaches 55 packets in the
   paper's Figure 8).  {!Core.Scenario.fixed_pair} turns loss detection
   on at finite buffers. *)
let fixed_window_point ~tau buffer =
  let id =
    match buffer with
    | None -> fmt "fixed-t%g-binf" tau
    | Some b -> fmt "fixed-t%g-b%d" tau b
  in
  let scenario =
    Core.Scenario.make ~name:id ~tau ~buffer
      ~conns:(Core.Scenario.fixed_pair ~buffer ~w1:30 ~w2:25 ())
      ~duration:400. ~warmup:150. ~sample_dt:0.05 ()
  in
  let params =
    ("tau", tau)
    :: ("w1", 30.) :: ("w2", 25.)
    :: (match buffer with None -> [] | Some b -> [ ("buffer", float_of_int b) ])
  in
  Driver.point ~params scenario

let fig8_buffers = [ Some 4; Some 6; Some 8; Some 12; Some 16; Some 24;
                     Some 32; Some 48; Some 64; None ]

let fig8 =
  {
    name = "fig8";
    title = "Fig-8 buffer grid: fixed windows 30/25, tau=0.01s, B=4..inf";
    points = (fun () -> List.map (fixed_window_point ~tau:0.01) fig8_buffers);
  }

let fig9 =
  {
    name = "fig9";
    title = "Fig-9 buffer grid: fixed windows 30/25, tau=1s, B=4..inf";
    points = (fun () -> List.map (fixed_window_point ~tau:1.0) fig8_buffers);
  }

(* ------------------------------------------------------------------ *)
(* 4.3.3 phase diagram: zero-size-ACK fixed windows over (w1, w2)       *)
(* ------------------------------------------------------------------ *)

let phase_diagram_tau = 0.4
let phase_diagram_windows = [ 6; 10; 14; 18; 22; 26; 30 ]

(* Row-major over w1 then w2, which is what the phase-diagram example
   relies on to print its matrix. *)
let phase_diagram_points () =
  List.concat_map
    (fun w1 ->
      List.map
        (fun w2 ->
          let scenario =
            Core.Scenario.make
              ~name:(fmt "pd-%d-%d" w1 w2)
              ~tau:phase_diagram_tau ~buffer:None
              ~conns:(Core.Scenario.fixed_pair ~ack_size:0 ~buffer:None ~w1 ~w2 ())
              ~duration:150. ~warmup:60. ()
          in
          Driver.point
            ~params:[ ("w1", float_of_int w1); ("w2", float_of_int w2) ]
            scenario)
        phase_diagram_windows)
    phase_diagram_windows

let phase_diagram =
  {
    name = "phase-diagram";
    title = "4.3.3 phase criterion: zero-ACK fixed windows over (w1, w2)";
    points = phase_diagram_points;
  }

(* ------------------------------------------------------------------ *)
(* Mode atlas: adaptive 1+1 two-way traffic over (tau, buffer)          *)
(* ------------------------------------------------------------------ *)

let mode_atlas_taus = [ 0.01; 0.1; 0.25; 0.5; 1.0 ]
let mode_atlas_buffers = [ 10; 20; 40; 80 ]

(* Row-major over buffer then tau (the atlas prints one row per buffer). *)
let mode_atlas_points () =
  List.concat_map
    (fun buffer ->
      List.map
        (fun tau ->
          let scenario =
            Core.Scenario.make
              ~name:(fmt "atlas-%g-%d" tau buffer)
              ~tau ~buffer:(Some buffer)
              ~conns:
                (Core.Scenario.stagger ~step:1.0
                   [
                     Core.Scenario.conn Core.Scenario.Forward;
                     Core.Scenario.conn Core.Scenario.Reverse;
                   ])
              ~duration:400. ~warmup:150. ()
          in
          Driver.point
            ~params:[ ("tau", tau); ("buffer", float_of_int buffer) ]
            scenario)
        mode_atlas_taus)
    mode_atlas_buffers

let mode_atlas =
  {
    name = "mode-atlas";
    title = "synchronization modes: two-way 1+1 over (tau, buffer)";
    points = mode_atlas_points;
  }

(* ------------------------------------------------------------------ *)
(* Utilization vs buffer (the TAB-UTIL axes)                            *)
(* ------------------------------------------------------------------ *)

(* TAB-UTIL's own rows (see {!Core.Experiments.scenario_buffer}). *)
let buffers_points () =
  let row ~two_way buffer =
    Driver.point
      ~params:
        [ ("two_way", if two_way then 1. else 0.);
          ("buffer", float_of_int buffer) ]
      (Core.Experiments.scenario_buffer ~two_way ~buffer)
  in
  List.map (row ~two_way:false) [ 20; 40; 80 ]
  @ List.map (row ~two_way:true) [ 20; 60; 120 ]

let buffers =
  {
    name = "buffers";
    title = "utilization vs buffer size: one-way rises, two-way is stuck";
    points = buffers_points;
  }

(* ------------------------------------------------------------------ *)
(* CC zoo: every adaptive variant over the two synchronization regimes  *)
(* ------------------------------------------------------------------ *)

let cc_zoo_taus = [ 0.01; 1.0 ]

(* Row-major over variant then tau (one row per adaptive zoo entry). *)
let cc_zoo_points () =
  List.concat_map
    (fun name ->
      let cc = Tcp.Cc.spec name in
      List.map
        (fun tau ->
          let scenario =
            Core.Scenario.make
              ~name:(fmt "cc-%s-t%g" name tau)
              ~tau ~buffer:(Some 20)
              ~conns:
                (Core.Scenario.stagger ~step:1.0
                   [
                     Core.Scenario.conn ~cc Core.Scenario.Forward;
                     Core.Scenario.conn ~cc Core.Scenario.Reverse;
                   ])
              ~duration:400. ~warmup:150. ()
          in
          Driver.point ~params:[ ("tau", tau) ] scenario)
        cc_zoo_taus)
    Tcp.Cc_zoo.adaptive

let cc_zoo =
  {
    name = "cc-zoo";
    title = "the CC variant zoo: two-way 1+1 per variant, small and large pipe";
    points = cc_zoo_points;
  }

(* ------------------------------------------------------------------ *)
(* CI smoke: a tiny grid that exercises the parallel path in seconds    *)
(* ------------------------------------------------------------------ *)

let smoke_points () =
  List.concat_map
    (fun tau ->
      List.map
        (fun buffer ->
          let scenario =
            Core.Scenario.make
              ~name:(fmt "smoke-%g-%d" tau buffer)
              ~tau ~buffer:(Some buffer)
              ~conns:
                [
                  Core.Scenario.conn Core.Scenario.Forward;
                  Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse;
                ]
              ~duration:40. ~warmup:10. ()
          in
          Driver.point
            ~params:[ ("tau", tau); ("buffer", float_of_int buffer) ]
            scenario)
        [ 10; 20 ])
    [ 0.01; 1.0 ]

let smoke =
  {
    name = "smoke";
    title = "tiny 2x2 grid for CI determinism checks";
    points = smoke_points;
  }

(* ------------------------------------------------------------------ *)

let all = [ fig8; fig9; phase_diagram; mode_atlas; buffers; cc_zoo; smoke ]

let find name = List.find_opt (fun s -> s.name = name) all
