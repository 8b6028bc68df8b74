(* Watchdog budgets, enforced from inside the event loop: every run goes
   through [Sim.run_guarded], which with no budget and no [stop]
   predicate runs the whole horizon as one block of [Sim]'s only loop.
   A separate unguarded path measured no faster on any bench/e2e
   workload (DESIGN §6h). *)
type budget = { max_events : int option; max_wall : float option }

let budget ?max_events ?max_wall () = { max_events; max_wall }

type result = {
  scenario : Scenario.t;
  dumbbell : Net.Topology.dumbbell;
  conns : (Scenario.conn_spec * Tcp.Connection.t) array;
  q1 : Trace.Queue_trace.t;
  q2 : Trace.Queue_trace.t;
  cwnds : Trace.Cwnd_trace.t array;
  drops : Trace.Drop_log.t;
  dep_fwd : Trace.Dep_log.t;
  dep_bwd : Trace.Dep_log.t;
  util_fwd : float;
  util_bwd : float;
  t0 : float;
  t1 : float;
  delivered : int array;
  validation : Validate.Harness.t option;
  fault_plans : (Scenario.fault_site * Faults.Plan.t) list;
  obs : Obs.Probe.t option;
  stop : Engine.Sim.stop_reason;
  bundle : string option;
}

(* NETSIM_VALIDATE=1 (any value but "" / "0") forces validation on for
   every run, letting the examples and bins be audited without code
   changes. *)
let env_forces_validation () =
  match Sys.getenv_opt "NETSIM_VALIDATE" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* The printer gives the exception one spelling everywhere, a sweep-pool
   point failure's text included, and that spelling identifies it. *)
exception Validation_failed of string

let validation_failed = "validation failed for "
let is_validation_failure = String.starts_with ~prefix:validation_failed

let () =
  Printexc.register_printer (function
    | Validation_failed what -> Some (validation_failed ^ what)
    | _ -> None)

let connection_config (d : Net.Topology.dumbbell) ~conn_id
    (spec : Scenario.conn_spec) =
  let src_host, dst_host =
    match spec.dir with
    | Scenario.Forward -> (d.host1, d.host2)
    | Scenario.Reverse -> (d.host2, d.host1)
  in
  Tcp.Config.make ~conn:conn_id ~src_host ~dst_host ~ack_size:spec.ack_size
    ~maxwnd:spec.maxwnd ~cc:spec.cc ~start_time:spec.start_time
    ~delayed_ack:spec.delayed_ack ~loss_detection:spec.loss_detection
    ~rto_params:spec.rto_params ~pacing:spec.pacing ~rtt_skew:spec.rtt_skew
    ~flow_size:spec.flow_size ()

let run ?(obs = Obs.Probe.disabled) ?(budget = budget ()) ?stop ?bundle_dir
    (scenario : Scenario.t) =
  let sim = Engine.Sim.create () in
  let params = Net.Topology.params ~gateway:scenario.gateway ~tau:scenario.tau
      ~buffer:scenario.buffer () in
  let dumbbell = Net.Topology.dumbbell sim params in
  let conns =
    Array.of_list
      (List.mapi
         (fun i spec ->
           let config = connection_config dumbbell ~conn_id:(i + 1) spec in
           (spec, Tcp.Connection.create dumbbell.net config))
         scenario.conns)
  in
  (* Fault plans go on before the validation harness so every checker is
     born knowing the link has a fault hook point; hook order itself does
     not matter (the link announces faults before firing drop hooks). *)
  let fault_plans =
    List.map
      (fun (site, spec) ->
        let link =
          match site with
          | Scenario.Fwd_bottleneck -> dumbbell.Net.Topology.fwd
          | Scenario.Bwd_bottleneck -> dumbbell.Net.Topology.bwd
        in
        (site, Faults.Plan.install dumbbell.net link ~seed:scenario.fault_seed
                 spec))
      scenario.faults
  in
  let validation =
    if scenario.validate || env_forces_validation () then
      Some
        (Validate.Harness.attach dumbbell.net
           ~conns:(Array.to_list (Array.map snd conns)))
    else None
  in
  let obs =
    if Obs.Probe.is_enabled obs then begin
      let probe =
        Obs.Probe.attach obs ~net:dumbbell.net
          ~conns:
            (List.mapi
               (fun i (_spec, c) -> (i + 1, c))
               (Array.to_list conns))
      in
      (match validation with
       | Some harness ->
         Obs.Probe.arm_report probe (Validate.Harness.report harness)
       | None -> ());
      Some probe
    end
    else None
  in
  let now = Engine.Sim.now sim in
  let q1 = Trace.Queue_trace.attach dumbbell.fwd ~now in
  let q2 = Trace.Queue_trace.attach dumbbell.bwd ~now in
  let cwnds =
    Array.map
      (fun (_spec, c) -> Trace.Cwnd_trace.attach (Tcp.Connection.sender c) ~now)
      conns
  in
  let drops = Trace.Drop_log.create () in
  List.iter (Trace.Drop_log.watch drops) (Net.Network.links dumbbell.net);
  let dep_fwd = Trace.Dep_log.attach dumbbell.fwd in
  let dep_bwd = Trace.Dep_log.attach dumbbell.bwd in
  (* Metering starts at the end of warm-up. *)
  let meters = ref None in
  let delivered_at_warmup = Array.make (Array.length conns) 0 in
  ignore
    (Engine.Sim.at sim ~time:scenario.warmup (fun () ->
         let now = Engine.Sim.now sim in
         meters :=
           Some
             ( Trace.Util_meter.start dumbbell.fwd ~now,
               Trace.Util_meter.start dumbbell.bwd ~now );
         Array.iteri
           (fun i (_spec, c) ->
             delivered_at_warmup.(i) <- Tcp.Connection.delivered c)
           conns)
      : Engine.Sim.handle);
  (* Crash-bundle plumbing: best-effort, first write wins (an exception
     bundle is not overwritten by a later validation bundle). *)
  let bundle = ref None in
  let write_bundle ~kind ~reason ?exn_text ?backtrace ?validation () =
    match bundle_dir with
    | None -> ()
    | Some dir ->
      if !bundle = None then (
        match
          Crash.write ~dir ~scenario ~sim ~kind ~reason ?exn_text ?backtrace
            ?validation
            ?flight_text:
              (Option.bind obs (fun probe ->
                   Obs.Probe.flight_text probe
                     ~reason:("crash bundle: " ^ reason)))
            ?metrics_json:(Option.map Obs.Probe.metrics_json obs)
            ?max_events:budget.max_events ?max_wall:budget.max_wall ()
        with
        | Ok path -> bundle := Some path
        | Error msg ->
          Printf.eprintf "netsim: failed to write crash bundle for %s: %s\n%!"
            scenario.name msg)
  in
  let stop_reason =
    try
      Engine.Sim.run_guarded sim ~until:scenario.duration
        ?max_events:budget.max_events ?max_wall:budget.max_wall
        ~wall_clock:Unix.gettimeofday ?stop ()
    with exn ->
      (* Salvage the postmortem before the exception unwinds the run. *)
      let bt = Printexc.get_raw_backtrace () in
      let exn_text = Printexc.to_string exn in
      (match obs with
       | Some probe ->
         Obs.Probe.dump_flight probe
           ~reason:(Printf.sprintf "Sim.run raised %s" exn_text)
       | None -> ());
      write_bundle ~kind:Crash.kind_exception
        ~reason:("Sim.run raised " ^ exn_text)
        ~exn_text
        ~backtrace:(Printexc.raw_backtrace_to_string bt)
        ();
      (match obs with Some probe -> Obs.Probe.finish probe | None -> ());
      Printexc.raise_with_backtrace exn bt
  in
  let stopped_early = stop_reason <> Engine.Sim.Completed in
  let now = Engine.Sim.now sim in
  let validation_summary = ref None in
  (match validation with
   | None -> ()
   | Some harness ->
     let report = Validate.Harness.finalize harness ~now in
     if not (Validate.Report.is_clean report) then begin
       validation_summary := Some (Validate.Report.summary report);
       (* An invariant violation means the simulation itself cannot be
          trusted; always say so loudly. *)
       prerr_endline
         (Printf.sprintf "netsim validation FAILED for scenario %s:"
            scenario.name);
       prerr_endline (Validate.Report.to_string report)
     end);
  (* Bundle on any bad ending: a watchdog stop (tagged with its reason,
     and with the validation verdict when there is one) or a validation
     violation on a completed run. *)
  if stopped_early then
    write_bundle
      ~kind:(Crash.kind_of_stop stop_reason)
      ~reason:(Engine.Sim.stop_reason_to_string stop_reason)
      ?validation:!validation_summary ()
  else (
    match !validation_summary with
    | Some summary ->
      write_bundle ~kind:Crash.kind_validation
        ~reason:("validation failed: " ^ summary)
        ~validation:summary ()
    | None -> ());
  (match !validation_summary with
   | Some summary when env_forces_validation () && not scenario.validate ->
     raise
       (Validation_failed
          (Printf.sprintf "scenario %s: %s" scenario.name summary))
   | _ -> ());
  (match obs with Some probe -> Obs.Probe.finish probe | None -> ());
  let util_fwd, util_bwd =
    match !meters with
    | Some (fwd, bwd) ->
      ( Trace.Util_meter.utilization fwd ~now,
        Trace.Util_meter.utilization bwd ~now )
    | None ->
      (* A run stopped before the warmup event has no measurement
         window; report zeros rather than failing the salvage. *)
      if stopped_early then (0., 0.)
      else failwith "Runner: warmup event never fired"
  in
  let delivered =
    match !meters with
    | None -> Array.make (Array.length conns) 0
    | Some _ ->
      Array.mapi
        (fun i (_spec, c) ->
          Tcp.Connection.delivered c - delivered_at_warmup.(i))
        conns
  in
  {
    scenario;
    dumbbell;
    conns;
    q1;
    q2;
    cwnds;
    drops;
    dep_fwd;
    dep_bwd;
    util_fwd;
    util_bwd;
    t0 = scenario.warmup;
    t1 =
      (if stopped_early then Float.max scenario.warmup now
       else scenario.duration);
    delivered;
    validation;
    fault_plans;
    obs;
    stop = stop_reason;
    bundle = !bundle;
  }

let validation_report r =
  Option.map (fun h -> Validate.Harness.report h) r.validation

(* A run stopped before warm-up ends has the empty window [t0, t0]:
   nothing was delivered in it and there is no series to classify. *)
let empty_window r = r.t1 <= r.t0

let goodput r i =
  if empty_window r then 0.
  else float_of_int r.delivered.(i) /. (r.t1 -. r.t0)

let drops_in_window r = Trace.Drop_log.in_window r.drops ~t0:r.t0 ~t1:r.t1

let epoch_gap = 5.
let epochs ?(gap = epoch_gap) r = Analysis.Epochs.detect ~gap (drops_in_window r)

let classify r a b =
  if empty_window r then (Analysis.Sync.Unclassified, Float.nan)
  else Analysis.Sync.classify a b ~t0:r.t0 ~t1:r.t1 ~dt:r.scenario.sample_dt

let queue_phase r =
  classify r (Trace.Queue_trace.series r.q1) (Trace.Queue_trace.series r.q2)

let queue_peak r qt =
  match
    Trace.Series.min_max (Trace.Queue_trace.series qt) ~t0:r.t0 ~t1:r.t1
  with
  | Some (_, hi) -> hi
  | None -> 0.

let cwnd_phase r i j =
  classify r
    (Trace.Cwnd_trace.cwnd r.cwnds.(i))
    (Trace.Cwnd_trace.cwnd r.cwnds.(j))

let effective_pipe r =
  let pipe trace =
    Trace.Dep_log.effective_pipe_packets trace ~data_tx:Scenario.data_tx
      ~t0:r.t0 ~t1:r.t1
  in
  match (pipe r.dep_fwd, pipe r.dep_bwd) with
  | Some a, Some b -> Some (Float.max a b)
  | (Some _ as x), None | None, (Some _ as x) -> x
  | None, None -> None
