(* The benchmark's four workloads.  The seed draws every connection's
   start offset, U(0, 0.5 s), from Engine.Rng; the simulator receives
   only the generated Scenario.t values.  Each workload's rep calls the
   public API the way a netsim user does, wrapped in layer spans that
   record only in the traced run. *)

module S = Core.Scenario

let span = Spans.span

(* What one rep produced, computed after the timer stops. *)
type output = {
  digest : string;  (** hex digest of the rep's canonical output *)
  events : int;  (** simulated events the rep covers *)
  count : int;  (** the workload's own unit of work: events, points, records *)
}

type prepared = {
  rep : unit -> unit -> output;
      (** runs one rep; the returned thunk digests its output untimed *)
  reference : string option;
      (** digest every rep must equal, when the workload has one that
          does not come from its own reps *)
}

type t = {
  name : string;
  unit_name : string;  (** what [output.count] counts *)
  scenarios : S.t list;
      (** the simulations behind the workload (for trace-stats, the run
          that writes its input trace) *)
  prepare : unit -> prepared;  (** set-up, timed as setup_s *)
  validated : (unit -> (output, string) result) option;
      (** one rep with every Validate checker attached *)
}

let names = [ "longrun-fig3"; "sweep-grid"; "traced-fig3"; "trace-stats" ]

let hex s = Digest.to_hex (Digest.string s)

let events_of (r : Core.Runner.result) =
  Engine.Sim.events_run (Net.Network.sim r.dumbbell.net)

(* Canonical text of a run: everything a behaviour change would move,
   floats in exact hex. *)
let canonical (r : Core.Runner.result) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "events=%d util=%h,%h drops=%d qsamples=%d,%d\n"
    (events_of r) r.util_fwd r.util_bwd
    (Trace.Drop_log.total r.drops)
    (Trace.Series.length (Trace.Queue_trace.series r.q1))
    (Trace.Series.length (Trace.Queue_trace.series r.q2));
  Array.iteri
    (fun i (_, c) ->
      let s = Tcp.Connection.sender c in
      Printf.bprintf b "conn%d window=%d acked=%d sent=%d rtx=%d to=%d fr=%d cwnd=%h\n"
        (i + 1) r.delivered.(i) (Tcp.Connection.delivered c)
        (Tcp.Sender.data_sent s) (Tcp.Sender.retransmits s)
        (Tcp.Sender.timeouts s) (Tcp.Sender.fast_retransmits s)
        (Tcp.Sender.cwnd s))
    r.conns;
  Buffer.contents b

let run_output r = { digest = hex (canonical r); events = events_of r; count = events_of r }

let check_clean (r : Core.Runner.result) =
  match Core.Runner.validation_report r with
  | Some rep when Validate.Report.is_clean rep -> Ok ()
  | Some rep -> Error (Validate.Report.summary rep)
  | None -> Error "validation did not run"

let validating (sc : S.t) = { sc with validate = true }

(* Set-up of the simulation workloads: a zero-horizon Runner.run builds
   each scenario's network and connections and runs nothing. *)
let build_only scenarios =
  List.iter
    (fun (sc : S.t) ->
      ignore
        (Core.Runner.run { sc with duration = 0.; warmup = 0. }
          : Core.Runner.result))
    scenarios

(* ------------------------------------------------------------------ *)
(* Scenario generation                                                 *)
(* ------------------------------------------------------------------ *)

let offsets rng n = Array.init n (fun _ -> Engine.Rng.uniform rng ~lo:0. ~hi:0.5)

(* Fig-3 two-way traffic: 5+5 Tahoe connections, tau = 10 ms, B = 20. *)
let fig3 ~seed ~scale ~duration =
  let starts = offsets (Engine.Rng.create ~seed) 10 in
  S.make ~name:"fig3-5+5" ~tau:0.01 ~buffer:(Some 20)
    ~conns:
      (List.init 10 (fun i ->
           S.conn ~start_time:starts.(i) (if i < 5 then S.Forward else S.Reverse)))
    ~duration:(scale *. duration) ~warmup:(scale *. 200.) ()

let sweep_taus = [ 0.01; 0.03; 0.1; 0.3; 1.; 3. ]
let sweep_buffers = [ 10; 20; 40; 80 ]
let sweep_draws = 4

(* Two-way 1+1 points over (tau, buffer), [sweep_draws] offset draws
   each, row-major in that order. *)
let sweep_points ~seed ~scale =
  let cells =
    List.concat_map
      (fun tau -> List.map (fun b -> (tau, b)) sweep_buffers)
      sweep_taus
  in
  let starts =
    offsets (Engine.Rng.create ~seed) (2 * sweep_draws * List.length cells)
  in
  List.concat
    (List.mapi
       (fun c (tau, b) ->
         List.init sweep_draws (fun d ->
             let k = 2 * ((c * sweep_draws) + d) in
             let id = Printf.sprintf "t%g-b%d-d%d" tau b d in
             Sweep.Driver.point ~id
               ~params:
                 [ ("tau", tau); ("buffer", float_of_int b); ("draw", float_of_int d) ]
               (S.make ~name:id ~tau ~buffer:(Some b)
                  ~conns:
                    [
                      S.conn ~start_time:starts.(k) S.Forward;
                      S.conn ~start_time:starts.(k + 1) S.Reverse;
                    ]
                  ~duration:(scale *. 60.) ~warmup:(scale *. 20.) ())))
       cells)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Steady-state hot path: 3600 sim-s, obs off, every lib/trace recorder
   Runner attaches. *)
let longrun_fig3 ~seed ~scale =
  let sc = fig3 ~seed ~scale ~duration:3600. in
  {
    name = "longrun-fig3";
    unit_name = "events";
    scenarios = [ sc ];
    prepare =
      (fun () ->
        build_only [ sc ];
        {
          rep =
            (fun () ->
              let r = span "core.Runner.run" (fun () -> Core.Runner.run sc) in
              fun () -> run_output r);
          reference = None;
        });
    validated =
      Some
        (fun () ->
          let r = Core.Runner.run (validating sc) in
          Result.map (fun () -> run_output r) (check_clean r));
  }

(* Many short transient-heavy runs: per-point set-up, Summary and the
   analysis modules, through the sequential sweep driver. *)
let sweep_grid ~seed ~scale =
  let points = sweep_points ~seed ~scale in
  let output summaries =
    let events =
      List.fold_left
        (fun acc (s : Sweep.Summary.t) ->
          acc + int_of_float (List.assoc "sim.events" s.metrics))
        0 summaries
    in
    fun json -> { digest = hex json; events; count = List.length summaries }
  in
  {
    name = "sweep-grid";
    unit_name = "points";
    scenarios = List.map (fun (p : Sweep.Driver.point) -> p.scenario) points;
    prepare =
      (fun () ->
        build_only (List.map (fun (p : Sweep.Driver.point) -> p.scenario) points);
        {
          rep =
            (fun () ->
              let summaries =
                span "sweep.Driver.run" (fun () -> Sweep.Driver.run ~jobs:1 points)
              in
              let json =
                span "sweep.Driver.to_json" (fun () -> Sweep.Driver.to_json summaries)
              in
              fun () -> output summaries json);
          reference = None;
        });
    validated =
      Some
        (fun () ->
          let rec go acc = function
            | [] ->
              let summaries = List.rev acc in
              Ok (output summaries (Sweep.Driver.to_json summaries))
            | (p : Sweep.Driver.point) :: rest -> (
              let r =
                Core.Runner.run ~obs:(Obs.Probe.setup ()) (validating p.scenario)
              in
              match check_clean r with
              | Ok () ->
                go (Sweep.Summary.of_result ~id:p.id ~params:p.params r :: acc) rest
              | Error e -> Error (p.id ^ ": " ^ e))
          in
          go [] points);
  }

(* The obs write path: metrics, per-flow accounting and the binary
   trace, into memory. *)
let traced_run sc =
  let buf = Buffer.create 65536 in
  let r =
    span "core.Runner.run" (fun () ->
        Core.Runner.run
          ~obs:(Obs.Probe.setup ~flowstats:true ~btrace:(Buffer.add_string buf) ())
          sc)
  in
  let stats =
    match Option.bind r.obs Obs.Probe.flowstats with
    | Some fs -> span "obs.Flowstats.to_json" (fun () -> Obs.Flowstats.to_json fs)
    | None -> failwith "traced run carries no flowstats"
  in
  (r, buf, stats)

let traced_output (r, buf, stats) =
  {
    (run_output r) with
    digest = hex (canonical r ^ hex (Buffer.contents buf) ^ stats);
  }

let traced_fig3 ~seed ~scale =
  let sc = fig3 ~seed ~scale ~duration:1000. in
  {
    name = "traced-fig3";
    unit_name = "events";
    scenarios = [ sc ];
    prepare =
      (fun () ->
        build_only [ sc ];
        {
          rep =
            (fun () ->
              let run = traced_run sc in
              fun () -> traced_output run);
          reference = None;
        });
    validated =
      Some
        (fun () ->
          let ((r, _, _) as run) = traced_run (validating sc) in
          Result.map (fun () -> traced_output run) (check_clean r));
  }

(* `netsim trace stats` offline: decode the traced-fig3 trace and
   recompute its per-flow summary, which must equal the online one byte
   for byte.  Set-up is writing that trace. *)
let trace_stats ~seed ~scale =
  let sc = fig3 ~seed ~scale ~duration:1000. in
  {
    name = "trace-stats";
    unit_name = "records";
    scenarios = [ sc ];
    prepare =
      (fun () ->
        let r, buf, online = traced_run sc in
        let data = Buffer.contents buf and events = events_of r in
        {
          rep =
            (fun () ->
              let file =
                match span "obs.Btrace.read" (fun () -> Obs.Btrace.read data) with
                | Ok f -> f
                | Error e -> failwith ("Btrace.read: " ^ e)
              in
              let fs = Obs.Flowstats.create () in
              span "obs.Flowstats.feed" (fun () ->
                  List.iter (Obs.Flowstats.feed fs) file.items);
              let json =
                span "obs.Flowstats.to_json" (fun () -> Obs.Flowstats.to_json fs)
              in
              fun () ->
                {
                  digest =
                    (match file.torn with None -> hex json | Some t -> "torn: " ^ t);
                  events;
                  count = List.length file.items;
                });
          reference = Some (hex online);
        });
    validated = None;
  }

let make name ~seed ~scale =
  match name with
  | "longrun-fig3" -> longrun_fig3 ~seed ~scale
  | "sweep-grid" -> sweep_grid ~seed ~scale
  | "traced-fig3" -> traced_fig3 ~seed ~scale
  | "trace-stats" -> trace_stats ~seed ~scale
  | other -> invalid_arg ("unknown workload " ^ other)
