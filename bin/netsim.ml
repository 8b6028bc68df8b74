(* netsim — command-line driver for the two-way-traffic dynamics study.

   Subcommands:
     experiment  run one (or all) of the paper's experiments and print
                 paper-vs-measured tables
     run         simulate a custom dumbbell scenario and print a summary
     sweep       run a scenario grid across parallel workers
     plot        ASCII queue/cwnd plots of a paper figure
     dump        write every figure's traces as CSV files
     trace       export a binary event trace as JSONL or Perfetto JSON
     tracecheck  validate an exported JSONL event trace
     replay      re-run a crash bundle and check it reproduces          *)

open Cmdliner

(* Exit codes: 0 ok, 1 validation/point failure, 2 CLI misuse,
   3 watchdog budget stop, 130 interrupted. *)
let exit_budget = 3
let exit_interrupt = 130

(* Numeric flags go through [Core.Args] so "nan", "inf" and
   out-of-range values are rejected at parse time with the flag named
   in the error (exit 2) instead of corrupting a run. *)
let checked_float ~what check =
  let parse s =
    match Core.Args.parse_float ~what check s with
    | Ok v -> Ok v
    | Error msg -> Error (`Msg msg)
  in
  let print ppf v = Format.fprintf ppf "%g" v in
  Arg.conv (parse, print)

let checked_int ~what ~min =
  let parse s =
    match Core.Args.parse_int ~what ~min s with
    | Ok v -> Ok v
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Format.pp_print_int)

(* ---------------- files ---------------- *)

(* A file or directory that cannot be opened or created is CLI misuse
   (exit 2), never an uncaught [Sys_error] (exit 125).  Outputs are
   opened before any simulation runs, so a bad path costs nothing. *)
let bad_path what msg =
  Printf.eprintf "netsim: %s: %s\n%!" what msg;
  exit 2

(* A directory opens for reading on Linux, and then fails on its length
   with an error that names no path. *)
let read_input ~cmd file =
  (match Sys.is_directory file with
   | true -> bad_path cmd (file ^ ": Is a directory")
   | false | (exception Sys_error _) -> ());
  try
    In_channel.with_open_bin file (fun ic ->
        really_input_string ic (in_channel_length ic))
  with Sys_error msg -> bad_path cmd msg

let open_output ~flag path =
  try open_out_bin path with Sys_error msg -> bad_path flag msg

let output_dir ~flag dir =
  match Sys.is_directory dir with
  | true -> ()
  | false -> bad_path flag (dir ^ ": Not a directory")
  | exception Sys_error _ -> (
    try Sys.mkdir dir 0o755 with Sys_error msg -> bad_path flag msg)

(* Flush and close; a failing close must not mask the run's outcome. *)
let close_output oc = try close_out oc with Sys_error _ -> ()

(* ---------------- interrupts ---------------- *)

(* Two-stage SIGINT/SIGTERM: the first signal flips [interrupted] — run
   and sweep poll it cooperatively and shut down with partial results —
   the second exits hard.  Forked sweep workers inherit the handler (and
   their own copy of the flag), so they finish their in-flight point,
   send it, and exit cleanly; only the original process narrates. *)
let interrupted = ref false
let original_pid = lazy (Unix.getpid ())

let install_signal_handlers () =
  let main_pid = Lazy.force original_pid in
  let handle name _ =
    if !interrupted then exit exit_interrupt
    else begin
      interrupted := true;
      if Unix.getpid () = main_pid then
        Printf.eprintf
          "netsim: %s — stopping cleanly (signal again to abort)\n%!" name
    end
  in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle (handle "interrupt"))
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (handle "termination"))
   with Invalid_argument _ | Sys_error _ -> ())

(* ---------------- watchdog / bundle flags ---------------- *)

type guard_cli = {
  max_events : int option;
  max_wall : float option;
  bundle_dir : string option;
}

let guard_term =
  let max_events =
    Arg.(
      value
      & opt (some (checked_int ~what:"--max-events" ~min:1)) None
      & info [ "max-events" ] ~docv:"N"
          ~doc:
            "Watchdog: stop the simulation after N events (per point for \
             sweeps) and return the partial result.")
  in
  let max_wall =
    Arg.(
      value
      & opt (some (checked_float ~what:"--max-wall" Core.Args.Positive)) None
      & info [ "max-wall" ] ~docv:"SECONDS"
          ~doc:
            "Watchdog: stop the simulation after SECONDS of wall-clock \
             time (per point for sweeps) and return the partial result.")
  in
  let bundle_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "bundle-dir" ] ~docv:"DIR"
          ~doc:
            "On a crash, validation violation or watchdog stop, write a \
             self-contained replayable bundle to DIR/<scenario-name> \
             (see $(b,netsim replay)).")
  in
  let mk max_events max_wall bundle_dir = { max_events; max_wall; bundle_dir } in
  Term.(const mk $ max_events $ max_wall $ bundle_dir)

let budget_of_guard g =
  Core.Runner.budget ?max_events:g.max_events ?max_wall:g.max_wall ()

(* Exit-code contribution of an early stop; also narrates it (stderr, so
   JSON stdout stays pure). *)
let report_stop (r : Core.Runner.result) =
  (match r.bundle with
   | Some path -> Printf.eprintf "crash bundle written: %s\n%!" path
   | None -> ());
  match r.stop with
  | Engine.Sim.Completed -> 0
  | Engine.Sim.Stop_requested ->
    Printf.eprintf "run stopped early: %s (partial results above)\n%!"
      (Engine.Sim.stop_reason_to_string r.stop);
    exit_interrupt
  | Engine.Sim.Event_budget _ | Engine.Sim.Wall_budget _ ->
    Printf.eprintf "run stopped early: %s (partial results above)\n%!"
      (Engine.Sim.stop_reason_to_string r.stop);
    exit_budget

let validate_flag =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:
          "Run the invariant checkers (packet conservation, FIFO order, \
           ACK monotonicity, Tahoe window rules, clock monotonicity) \
           alongside the simulation; exit non-zero on any violation.")

(* Print the validation verdict; returns the exit code contribution. *)
let report_validation (r : Core.Runner.result) =
  match Core.Runner.validation_report r with
  | None -> 0
  | Some report ->
    print_endline (Validate.Report.to_string report);
    if Validate.Report.is_clean report then 0 else 1

(* Under NETSIM_VALIDATE=1 a run that did not ask for validation raises
   [Core.Runner.Validation_failed] on a violation, directly or as failed
   points of [Sweep_pool.map].  That is a verdict, as [--validate]'s is:
   its summary on stderr and exit 1.  Any other exception still reaches
   cmdliner (exit 125). *)
let verdict f =
  match f () with
  | code -> code
  | exception (Core.Runner.Validation_failed _ as e) ->
    prerr_endline (Printexc.to_string e);
    1
  | exception Sweep_pool.Error { point_failures = _ :: _ as failures; _ }
    when List.for_all
           (fun (pf : Sweep_pool.point_failure) ->
             Core.Runner.is_validation_failure pf.exn_text)
           failures ->
    List.iter
      (fun (pf : Sweep_pool.point_failure) -> prerr_endline pf.exn_text)
      failures;
    1

(* ---------------- experiment ---------------- *)

let experiment_names = "all" :: List.map fst Core.Experiments.registry

let run_experiment name json =
  verdict @@ fun () ->
  let outcomes =
    if name = "all" then Core.Experiments.all ()
    else
      match Core.Experiments.find name with
      | Some f -> [ f () ]
      | None ->
        prerr_endline
          ("unknown experiment " ^ name ^ "; expected one of: "
          ^ String.concat ", " experiment_names);
        exit 2
  in
  if json then print_endline (Core.Report.list_to_json outcomes)
  else begin
    List.iter Core.Report.print outcomes;
    List.iter (fun o -> print_endline (Core.Report.summary_line o)) outcomes
  end;
  if List.for_all Core.Report.all_passed outcomes then 0 else 1

let experiment_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"NAME"
          ~doc:
            ("Experiment to run: "
            ^ String.concat ", " experiment_names
            ^ "."))
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit results as JSON.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce the paper's tables and figures.")
    Term.(const run_experiment $ name_arg $ json)

(* ---------------- fault flags ---------------- *)

type fault_cli = {
  loss : float option;
  burst : (float * float * float) option;
  outage : (float * float) list;
  jitter : float option;
  jitter_reorder : bool;
  dup : float option;
  dir : string;
  seed : int;
}

(* Turn the flags into scenario fault sites; [None] when no fault flag was
   given, so fault-free runs keep the exact no-faults fast path. *)
let fault_sites cli =
  if
    cli.loss = None && cli.burst = None && cli.outage = [] && cli.jitter = None
    && cli.dup = None
  then None
  else begin
    (match (cli.loss, cli.burst) with
     | Some _, Some _ ->
       prerr_endline "--loss and --burst-loss are mutually exclusive";
       exit 2
     | _ -> ());
    let spec =
      try
        Faults.Spec.make
          ?loss:
            (match (cli.loss, cli.burst) with
             | Some p, _ -> Some (Faults.Spec.Bernoulli p)
             | None, Some (p_enter, p_exit, loss_in_burst) ->
               Some
                 (Faults.Spec.Gilbert_elliott
                    { p_enter; p_exit; loss_in_burst; loss_outside = 0. })
             | None, None -> None)
          ?outage:
            (match cli.outage with
             | [] -> None
             | windows -> Some { Faults.Spec.windows; flap = None })
          ?jitter:
            (Option.map
               (fun bound ->
                 { Faults.Spec.bound; preserve_order = not cli.jitter_reorder })
               cli.jitter)
          ?duplicate:cli.dup ()
      with Invalid_argument msg ->
        prerr_endline msg;
        exit 2
    in
    let sites =
      match cli.dir with
      | "fwd" -> [ (Core.Scenario.Fwd_bottleneck, spec) ]
      | "bwd" -> [ (Core.Scenario.Bwd_bottleneck, spec) ]
      | "both" ->
        [
          (Core.Scenario.Fwd_bottleneck, spec);
          (Core.Scenario.Bwd_bottleneck, spec);
        ]
      | other ->
        prerr_endline ("unknown --fault-dir " ^ other ^ " (fwd|bwd|both)");
        exit 2
    in
    Some sites
  end

(* Comma-separated float lists with per-element validation: each element
   must parse AND satisfy [check] (no "nan"/"inf"/negative sneaking into
   fault specs through the list syntax). *)
let float_list_conv ~what ~check ~expected ~of_list =
  let parse s =
    let rec go acc = function
      | [] -> of_list (List.rev acc)
      | x :: rest -> (
        match Core.Args.parse_float ~what check (String.trim x) with
        | Ok v -> go (v :: acc) rest
        | Error msg -> Error (`Msg (msg ^ "; " ^ expected)))
    in
    go [] (String.split_on_char ',' s)
  in
  let print ppf _ = Format.fprintf ppf "<fault spec>" in
  Arg.conv (parse, print)

let burst_conv =
  float_list_conv ~what:"--burst-loss" ~check:Core.Args.Probability
    ~expected:"expected P_ENTER,P_EXIT,P_LOSS" ~of_list:(function
    | [ a; b; c ] -> Ok (a, b, c)
    | _ -> Error (`Msg "expected P_ENTER,P_EXIT,P_LOSS"))

let outage_conv =
  let rec pair_up = function
    | [] -> Ok []
    | start :: stop :: rest ->
      Result.map (fun tl -> (start, stop) :: tl) (pair_up rest)
    | [ _ ] -> Error (`Msg "expected START,STOP pairs")
  in
  float_list_conv ~what:"--outage" ~check:Core.Args.Non_negative
    ~expected:"expected START,STOP[,START,STOP...]" ~of_list:pair_up

let fault_term =
  let loss =
    Arg.(
      value
      & opt (some (checked_float ~what:"--loss" Core.Args.Probability)) None
      & info [ "loss" ] ~docv:"P"
          ~doc:"Drop each packet entering the faulted link with probability P.")
  in
  let burst =
    Arg.(
      value
      & opt (some burst_conv) None
      & info [ "burst-loss" ] ~docv:"P_ENTER,P_EXIT,P_LOSS"
          ~doc:
            "Gilbert-Elliott bursty loss: enter a burst with P_ENTER per \
             packet, leave with P_EXIT, and drop with P_LOSS while inside.")
  in
  let outage =
    Arg.(
      value
      & opt outage_conv []
      & info [ "outage" ] ~docv:"START,STOP[,...]"
          ~doc:
            "Take the faulted link down over each [START,STOP) window \
             (seconds); everything in flight at the cut is lost.")
  in
  let jitter =
    Arg.(
      value
      & opt
          (some (checked_float ~what:"--jitter" Core.Args.Non_negative))
          None
      & info [ "jitter" ] ~docv:"SECONDS"
          ~doc:"Add uniform extra latency in [0, SECONDS) per departure.")
  in
  let jitter_reorder =
    Arg.(
      value & flag
      & info [ "jitter-reorder" ]
          ~doc:"Let jitter reorder deliveries (default preserves FIFO order).")
  in
  let dup =
    Arg.(
      value
      & opt (some (checked_float ~what:"--dup" Core.Args.Probability)) None
      & info [ "dup" ] ~docv:"P"
          ~doc:"Duplicate each admitted packet with probability P.")
  in
  let dir =
    Arg.(
      value & opt string "fwd"
      & info [ "fault-dir" ] ~docv:"DIR"
          ~doc:"Bottleneck link(s) to fault: fwd, bwd, or both.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:"Seed for the fault RNG streams.")
  in
  let mk loss burst outage jitter jitter_reorder dup dir seed =
    { loss; burst; outage; jitter; jitter_reorder; dup; dir; seed }
  in
  Term.(
    const mk $ loss $ burst $ outage $ jitter $ jitter_reorder $ dup $ dir
    $ seed)

(* ---------------- observability flags ---------------- *)

type obs_cli = {
  metrics_out : string option;
  metrics_dt : float option;
  trace_out : string option;
  flowstats_out : string option;
  flight : int;
  json : bool;
}

let obs_term =
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the final metrics snapshot (and, with \
             $(b,--metrics-dt), the recorded per-metric series) as JSON \
             to FILE.")
  in
  let metrics_dt =
    Arg.(
      value
      & opt
          (some (checked_float ~what:"--metrics-dt" Core.Args.Positive))
          None
      & info [ "metrics-dt" ] ~docv:"SECONDS"
          ~doc:
            "Also sample every metric each SECONDS of simulated time \
             into step series, written to the $(b,--metrics-out) file \
             (which this flag requires).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the structured event trace to FILE in the compact \
             binary format; convert offline with $(b,netsim trace \
             export FILE --format jsonl|perfetto).")
  in
  let flowstats_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flowstats-out" ] ~docv:"FILE"
          ~doc:
            "Write the per-flow accounting summary (delivered bytes, \
             retransmits, RTT/FCT percentiles, Jain's index) as JSON to \
             FILE.  The same summary is recomputable offline from a \
             binary trace with $(b,netsim trace stats), byte for byte.")
  in
  let flight =
    Arg.(
      value
      & opt (checked_int ~what:"--flight-recorder" ~min:0) 0
      & info [ "flight-recorder" ] ~docv:"N"
          ~doc:
            "Keep the last N trace events in memory and dump them to \
             stderr when a validation checker fires or the run fails.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the run summary as one JSON object (with the final \
             metrics snapshot embedded) instead of the human-readable \
             report.")
  in
  let mk metrics_out metrics_dt trace_out flowstats_out flight json =
    { metrics_out; metrics_dt; trace_out; flowstats_out; flight; json }
  in
  Term.(
    const mk $ metrics_out $ metrics_dt $ trace_out $ flowstats_out $ flight
    $ json)

let obs_setup_of_cli (cli : obs_cli) ~btrace =
  let metrics = cli.metrics_out <> None || cli.json in
  let flowstats = cli.flowstats_out <> None in
  if not (metrics || btrace <> None || cli.flight > 0 || flowstats)
  then Obs.Probe.disabled
  else begin
    Obs.Probe.setup ~metrics
      ?series_dt:cli.metrics_dt
      ?btrace
      ?flight:(if cli.flight > 0 then Some cli.flight else None)
      ~flowstats ()
  end

(* {"final":{...},"series":{"name":[[t,v],...],...}} *)
let metrics_file_json probe =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"final\":";
  Buffer.add_string buf (Obs.Probe.metrics_json probe);
  (match Obs.Probe.series probe with
   | [] -> ()
   | series ->
     Buffer.add_string buf ",\"series\":{";
     List.iteri
       (fun i (name, s) ->
         if i > 0 then Buffer.add_char buf ',';
         Printf.bprintf buf "\"%s\":[" name;
         let first = ref true in
         let num f =
           if Float.is_finite f then Obs.Json.float_repr f else "null"
         in
         Trace.Series.iter s ~f:(fun ~time ~value ->
             if not !first then Buffer.add_char buf ',';
             first := false;
             Printf.bprintf buf "[%s,%s]" (num time) (num value));
         Buffer.add_char buf ']')
       series;
     Buffer.add_char buf '}');
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ---------------- run ---------------- *)

let run_custom tau buffer fwd rev fixed delack ack_size cc pacing
    gateway flow_size skew duration warmup csv_dir validate faults_cli
    obs_cli guard_cli =
  verdict @@ fun () ->
  (* [--cc list] prints the zoo table and exits (usable without any other
     scenario flags). *)
  (match cc with
   | "list" | "help" ->
     List.iter
       (fun (id, describe) -> Printf.printf "%-18s %s\n" id describe)
       Tcp.Cc_zoo.zoo;
     exit 0
   | _ -> ());
  if fwd + rev = 0 && fixed = None then begin
    prerr_endline "nothing to simulate: need --fwd, --rev or --fixed";
    exit 2
  end;
  if duration <= warmup then begin
    Printf.eprintf "--duration (%g) must exceed --warmup (%g)\n%!" duration
      warmup;
    exit 2
  end;
  if obs_cli.metrics_dt <> None && obs_cli.metrics_out = None then begin
    prerr_endline "--metrics-dt needs --metrics-out: the series go only there";
    exit 2
  end;
  let cc =
    match Tcp.Cc.spec_of_string cc with
    | Error msg ->
      prerr_endline ("bad --cc: " ^ msg);
      exit 2
    | Ok spec ->
      (* Trial-instantiate so an unknown name or bad parameter fails
         here with the known names listed, not mid-scenario. *)
      (try ignore (Tcp.Cc_zoo.make spec ~maxwnd:1000 : Tcp.Cc.t)
       with Invalid_argument msg ->
         prerr_endline ("bad --cc: " ^ msg);
         exit 2);
      spec
  in
  let gateway =
    match gateway with
    | "fifo" -> Net.Discipline.Fifo
    | "random-drop" -> Net.Discipline.Random_drop { seed = 11 }
    | "fair-queue" -> Net.Discipline.Fair_queue
    | other ->
      prerr_endline
        ("unknown gateway " ^ other ^ " (fifo|random-drop|fair-queue)");
      exit 2
  in
  let buffer = if buffer <= 0 then None else Some buffer in
  let conns =
    match fixed with
    | Some (w1, w2) -> Core.Scenario.fixed_pair ~ack_size ~buffer ~w1 ~w2 ()
    | None ->
      Core.Scenario.stagger ~step:1.0
        (List.init fwd (fun i ->
             Core.Scenario.conn ~cc ~pacing ~delayed_ack:delack ~ack_size
               ~rtt_skew:(if i = 0 then 0. else skew)
               ~flow_size Core.Scenario.Forward)
        @ List.init rev (fun _ ->
              Core.Scenario.conn ~cc ~pacing ~delayed_ack:delack
                ~ack_size ~flow_size Core.Scenario.Reverse))
  in
  let scenario =
    Core.Scenario.make ~name:"custom" ~tau ~buffer ~gateway ~conns ~duration
      ~warmup ~validate
      ?faults:(fault_sites faults_cli)
      ~fault_seed:faults_cli.seed ()
  in
  let output flag = Option.map (open_output ~flag) in
  let trace_oc = output "--trace-out" obs_cli.trace_out
  and metrics_oc = output "--metrics-out" obs_cli.metrics_out
  and flowstats_oc = output "--flowstats-out" obs_cli.flowstats_out in
  Option.iter (output_dir ~flag:"--csv") csv_dir;
  install_signal_handlers ();
  let obs_setup =
    obs_setup_of_cli obs_cli ~btrace:(Option.map output_string trace_oc)
  in
  (* Flush-and-close every output on every exit path: the runner
     flushes the binary writer even when Sim.run raises, so a crashed
     run leaves a prefix from which trace export recovers every
     complete record. *)
  Fun.protect
    ~finally:(fun () ->
      List.iter (Option.iter close_output)
        [ trace_oc; metrics_oc; flowstats_oc ])
  @@ fun () ->
  let r =
    Core.Runner.run ~obs:obs_setup
      ~budget:(budget_of_guard guard_cli)
      ~stop:(fun () -> !interrupted)
      ?bundle_dir:guard_cli.bundle_dir scenario
  in
  (* Runner already finished the probe (chrome footer written). *)
  (match (metrics_oc, r.obs) with
   | Some oc, Some probe -> output_string oc (metrics_file_json probe)
   | _ -> ());
  (match (flowstats_oc, Option.bind r.obs Obs.Probe.flowstats) with
   | Some oc, Some fs -> output_string oc (Obs.Flowstats.to_json fs)
   | _ -> ());
  if obs_cli.json then begin
    print_string (Sweep.Summary.to_json (Sweep.Summary.of_result ~id:"custom" r));
    print_newline ();
    let stop_exit = report_stop r in
    if stop_exit <> 0 then stop_exit
    else
      match Core.Runner.validation_report r with
      | Some report when not (Validate.Report.is_clean report) -> 1
      | _ -> 0
  end
  else begin
  List.iter
    (fun (_site, plan) -> Printf.printf "faults: %s\n" (Faults.Plan.summary plan))
    r.fault_plans;
  Printf.printf "scenario: tau=%gs buffer=%s pipe=%.3g pkts\n" tau
    (match buffer with Some b -> string_of_int b | None -> "infinite")
    (Core.Scenario.pipe scenario);
  Printf.printf "measurement window: [%.0f, %.0f) s\n" r.t0 r.t1;
  Printf.printf "bottleneck utilization: fwd %.1f%%  bwd %.1f%%\n"
    (100. *. r.util_fwd) (100. *. r.util_bwd);
  Array.iteri
    (fun i (spec, c) ->
      let sender = Tcp.Connection.sender c in
      Printf.printf
        "conn %d (%s): goodput %.2f pkt/s, cwnd %.1f, ssthresh %.1f, \
         rexmt %d, timeouts %d, fast-rexmt %d\n"
        (i + 1)
        (match spec.Core.Scenario.dir with
         | Core.Scenario.Forward -> "fwd"
         | Core.Scenario.Reverse -> "rev")
        (Core.Runner.goodput r i)
        (Tcp.Connection.cwnd c)
        (Tcp.Connection.ssthresh c)
        (Tcp.Sender.retransmits sender)
        (Tcp.Sender.timeouts sender)
        (Tcp.Sender.fast_retransmits sender))
    r.conns;
  Array.iteri
    (fun i (_spec, c) ->
      match Tcp.Sender.completed_at (Tcp.Connection.sender c) with
      | Some t -> Printf.printf "conn %d completed its flow at t=%.2fs\n" (i + 1) t
      | None -> ())
    r.conns;
  let drops = Core.Runner.drops_in_window r in
  Printf.printf "drops in window: %d\n" (List.length drops);
  let epochs = Core.Runner.epochs r in
  let gap = Core.Runner.epoch_gap in
  (match epochs with
   | [ e ] when e.start -. r.t0 < gap && r.t1 -. e.stop < gap ->
     (* One epoch from edge to edge of the window: the drops never
        paused for the gap, so its count would be meaningless. *)
     Printf.printf
       "congestion epochs: none distinguishable (drops never pause for %g s)\n"
       gap
   | _ -> (
     match Analysis.Epochs.mean_drops epochs with
     | Some m ->
       Printf.printf "congestion epochs: %d (mean %.2f drops each)\n"
         (List.length epochs) m
     | None -> print_endline "congestion epochs: none"));
  let qphase, qcorr = Core.Runner.queue_phase r in
  Printf.printf "queue synchronization: %s (r=%.2f)\n"
    (Analysis.Sync.phase_to_string qphase)
    qcorr;
  (match csv_dir with
   | None -> ()
   | Some dir ->
     let files = Core.Export.run_csv ~dir ~prefix:"custom" r in
     Printf.printf "wrote %d CSV files under %s\n" (List.length files) dir);
  (match r.obs with
   | Some probe ->
     (match obs_cli.trace_out with
      | Some file ->
        Printf.printf
          "trace: %d events -> %s (binary; netsim trace export %s)\n"
          (Obs.Probe.events_traced probe)
          file file
      | None -> ());
     Option.iter
       (fun file -> Printf.printf "metrics: wrote %s\n" file)
       obs_cli.metrics_out;
     Option.iter
       (fun file ->
         Printf.printf "flowstats: wrote %s (netsim trace stats recomputes \
                        it from a binary trace)\n" file)
       obs_cli.flowstats_out
   | None -> ());
  let validation_exit = report_validation r in
  let stop_exit = report_stop r in
  if stop_exit <> 0 then stop_exit else validation_exit
  end

let fixed_conv =
  let parse s =
    let window w = Core.Args.parse_int ~what:"--fixed" ~min:1 w in
    match String.split_on_char ',' s with
    | [ a; b ] -> (
      match (window a, window b) with
      | Ok w1, Ok w2 -> Ok (w1, w2)
      | Error msg, _ | _, Error msg -> Error (`Msg (msg ^ "; expected W1,W2")))
    | _ -> Error (`Msg "expected W1,W2")
  in
  let print ppf (a, b) = Format.fprintf ppf "%d,%d" a b in
  Arg.conv (parse, print)

let run_cmd =
  let tau =
    Arg.(
      value
      & opt (checked_float ~what:"--tau" Core.Args.Positive) 0.01
      & info [ "tau" ] ~docv:"SECONDS" ~doc:"Bottleneck propagation delay.")
  in
  let buffer =
    Arg.(
      value
      & opt (checked_int ~what:"--buffer" ~min:0) 20
      & info [ "buffer" ] ~docv:"PKTS"
          ~doc:"Bottleneck buffer; 0 means infinite.")
  in
  let fwd =
    Arg.(
      value
      & opt (checked_int ~what:"--fwd" ~min:0) 1
      & info [ "fwd" ] ~docv:"N" ~doc:"Connections sourcing on Host-1.")
  in
  let rev =
    Arg.(
      value
      & opt (checked_int ~what:"--rev" ~min:0) 0
      & info [ "rev" ] ~docv:"N" ~doc:"Connections sourcing on Host-2.")
  in
  let fixed =
    Arg.(
      value
      & opt (some fixed_conv) None
      & info [ "fixed" ] ~docv:"W1,W2"
          ~doc:
            "Use two fixed-window connections instead of TCP.  At a \
             finite $(b,--buffer) they detect loss and retransmit, as \
             the fig8 and fig9 grid points do.")
  in
  let delack =
    Arg.(value & flag & info [ "delack" ] ~doc:"Enable the delayed-ACK option.")
  in
  let cc =
    Arg.(
      value & opt string "tahoe"
      & info [ "cc" ] ~docv:"NAME[:K=V,...]"
          ~doc:
            "Congestion control from the zoo, with optional \
             parameters (e.g. newreno, aimd:a=1,b=0.7, fixed:w=30).  \
             $(b,--cc list) prints the variants.")
  in
  let pacing =
    Arg.(
      value
      & opt (some (checked_float ~what:"--pacing" Core.Args.Positive)) None
      & info [ "pacing" ] ~docv:"SECONDS"
          ~doc:"Pace data packets at least this far apart.")
  in
  let gateway =
    Arg.(
      value & opt string "fifo"
      & info [ "gateway" ] ~docv:"KIND"
          ~doc:"Bottleneck discipline: fifo, random-drop, or fair-queue.")
  in
  let flow_size =
    Arg.(
      value
      & opt (some (checked_int ~what:"--flow-size" ~min:1)) None
      & info [ "flow-size" ] ~docv:"PKTS"
          ~doc:"Finite flows of this many packets (default: infinite).")
  in
  let skew =
    Arg.(
      value
      & opt (checked_float ~what:"--skew" Core.Args.Non_negative) 0.
      & info [ "skew" ] ~docv:"SECONDS"
          ~doc:
            "Extra one-way latency for every forward connection but the \
             first (breaks the identical-RTT assumption).")
  in
  let ack_size =
    Arg.(
      value
      & opt (checked_int ~what:"--ack-size" ~min:0) 50
      & info [ "ack-size" ] ~docv:"BYTES" ~doc:"ACK packet size.")
  in
  let duration =
    Arg.(
      value
      & opt (checked_float ~what:"--duration" Core.Args.Positive) 600.
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated time.")
  in
  let warmup =
    Arg.(
      value
      & opt (checked_float ~what:"--warmup" Core.Args.Non_negative) 200.
      & info [ "warmup" ] ~docv:"SECONDS" ~doc:"Excluded warm-up time.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Dump traces as CSV files into DIR.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a custom dumbbell scenario.")
    Term.(
      const run_custom $ tau $ buffer $ fwd $ rev $ fixed $ delack $ ack_size
      $ cc $ pacing $ gateway $ flow_size $ skew $ duration
      $ warmup $ csv $ validate_flag $ fault_term $ obs_term $ guard_term)

(* ---------------- sweep ---------------- *)

let grid_names = List.map (fun (g : Sweep.Grids.spec) -> g.name) Sweep.Grids.all

(* Live progress/ETA line on stderr ("\r"-rewritten, so stdout JSON
   stays byte-deterministic).  The pool calls it in this process, in
   order; a ~0.2 s throttle keeps fast grids from flooding the
   terminal, and the final point always paints so the line ends at
   100%. *)
let progress_reporter ~total ~started =
  let last_paint = ref 0. in
  fun (p : Sweep_pool.progress) ->
    let now = Unix.gettimeofday () in
    if p.prog_done >= total || now -. !last_paint >= 0.2 then begin
      last_paint := now;
      let elapsed = now -. started in
      let eta =
        if p.prog_done > 0 && p.prog_done < total then
          Printf.sprintf ", ETA %.0fs"
            (elapsed /. float_of_int p.prog_done
            *. float_of_int (total - p.prog_done))
        else ""
      in
      Printf.eprintf
        "\rsweep: %d/%d points (%d%%), %d running, %.1fs elapsed%s \027[K%!"
        p.prog_done total
        (100 * p.prog_done / max 1 total)
        p.prog_running elapsed eta
    end

let run_sweep grid_name jobs out list_grids progress guard_cli =
  if list_grids then begin
    List.iter
      (fun (g : Sweep.Grids.spec) -> Printf.printf "%-14s %s\n" g.name g.title)
      Sweep.Grids.all;
    0
  end
  else
    match Sweep.Grids.find grid_name with
    | None ->
      prerr_endline
        ("unknown grid " ^ grid_name ^ "; expected one of: "
        ^ String.concat ", " grid_names);
      2
    | Some grid ->
      let oc = Option.map (open_output ~flag:"--out") out in
      Fun.protect ~finally:(fun () -> Option.iter close_output oc)
      @@ fun () ->
      install_signal_handlers ();
      let points = grid.points () in
      let started = Unix.gettimeofday () in
      let on_progress =
        if progress then
          Some (progress_reporter ~total:(List.length points) ~started)
        else None
      in
      let outcome =
        Sweep.Driver.run_collect ~jobs ?on_progress
          ~stop:(fun () -> !interrupted)
          ~budget:(budget_of_guard guard_cli)
          ?bundle_dir:guard_cli.bundle_dir points
      in
      if progress then prerr_newline ();
      let elapsed = Unix.gettimeofday () -. started in
      List.iter
        (fun (pf : Sweep_pool.point_failure) ->
          Printf.eprintf "netsim sweep: point %d failed: %s\n%!" pf.point
            pf.exn_text)
        outcome.point_failures;
      let completed =
        List.filter_map Fun.id (Array.to_list outcome.results)
      in
      if outcome.interrupted then begin
        (* Partial summary: whatever finished before the signal. *)
        Sweep.Driver.print_table completed;
        Printf.printf "interrupted: %d of %d points completed in %.2fs\n"
          (List.length completed) (List.length points) elapsed;
        exit_interrupt
      end
      else if
        outcome.point_failures <> []
        || List.length completed <> List.length points
      then begin
        Sweep.Driver.print_table completed;
        Printf.eprintf "netsim sweep: %d of %d points failed\n%!"
          (List.length points - List.length completed)
          (List.length points);
        1
      end
      else begin
        let summaries = completed in
        Sweep.Driver.print_table summaries;
        (* Timing goes to stdout only — the JSON must be a pure function
           of the grid so --jobs N output diffs clean against --jobs 1. *)
        Printf.printf "%d points in %.2fs with %d job(s)\n"
          (List.length points) elapsed (max 1 jobs);
        (match (out, oc) with
         | Some file, Some oc ->
           output_string oc (Sweep.Driver.to_json summaries);
           Printf.printf "wrote %s\n" file
         | _ -> ());
        0
      end

let sweep_cmd =
  let grid_arg =
    Arg.(
      value & pos 0 string "fig8"
      & info [] ~docv:"GRID"
          ~doc:("Grid to sweep: " ^ String.concat ", " grid_names ^ "."))
  in
  let jobs =
    Arg.(
      value
      & opt (checked_int ~what:"--jobs" ~min:1) (Sweep_pool.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Parallel workers, run as forked processes (default \
             $(b,NETSIM_JOBS) or 1).  Results are bit-identical for every \
             N.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write per-point summaries as deterministic JSON to FILE.")
  in
  let list_grids =
    Arg.(value & flag & info [ "list" ] ~doc:"List available grids and exit.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Paint a live progress/ETA line on stderr as points \
             complete.  Stdout output is unaffected, so $(b,--out) JSON \
             stays byte-deterministic.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a scenario grid across parallel workers.")
    Term.(
      const run_sweep $ grid_arg $ jobs $ out $ list_grids
      $ progress $ guard_term)

(* ---------------- plot ---------------- *)

let plottable =
  List.map (fun (f : Core.Experiments.figure) -> f.fig) Core.Experiments.figures

let plot_figure name width validate =
  verdict @@ fun () ->
  let scenario =
    match
      List.find_opt
        (fun (f : Core.Experiments.figure) -> f.fig = name)
        Core.Experiments.figures
    with
    | Some f -> f.scenario
    | None ->
      prerr_endline
        ("unknown figure " ^ name ^ "; expected one of: "
        ^ String.concat ", " plottable);
      exit 2
  in
  let scenario =
    if validate then { scenario with Core.Scenario.validate = true }
    else scenario
  in
  let r = Core.Runner.run scenario in
  let span = Float.min 40. (r.t1 -. r.t0) in
  let t0 = r.t1 -. span and t1 = r.t1 in
  Printf.printf "%s: queue at switch 1 (packets)\n" name;
  print_string
    (Core.Ascii_plot.render ~width
       (Trace.Queue_trace.series r.q1)
       ~t0 ~t1);
  Printf.printf "\n%s: queue at switch 2 (packets)\n" name;
  print_string
    (Core.Ascii_plot.render ~width
       (Trace.Queue_trace.series r.q2)
       ~t0 ~t1);
  if Array.length r.cwnds >= 2 then begin
    print_newline ();
    Printf.printf "%s: congestion windows\n" name;
    print_string
      (Core.Ascii_plot.render_pair ~width ~labels:("cwnd-1", "cwnd-2")
         (Trace.Cwnd_trace.cwnd r.cwnds.(0))
         (Trace.Cwnd_trace.cwnd r.cwnds.(1))
         ~t0:r.t0 ~t1:r.t1)
  end;
  report_validation r

let plot_cmd =
  let name_arg =
    Arg.(
      value & pos 0 string "fig45"
      & info [] ~docv:"FIGURE"
          ~doc:("Figure to plot: " ^ String.concat ", " plottable ^ "."))
  in
  let width =
    Arg.(
      value
      & opt (checked_int ~what:"--width" ~min:8) 96
      & info [ "width" ] ~docv:"COLS" ~doc:"Plot width.")
  in
  Cmd.v
    (Cmd.info "plot" ~doc:"ASCII plots of a paper figure.")
    Term.(const plot_figure $ name_arg $ width $ validate_flag)

(* ---------------- dump ---------------- *)

let dump_figures dir validate =
  verdict @@ fun () ->
  output_dir ~flag:"--dir" dir;
  let failures = ref 0 in
  let dump prefix scenario =
    let scenario =
      if validate then { scenario with Core.Scenario.validate = true }
      else scenario
    in
    let r = Core.Runner.run scenario in
    let files = Core.Export.run_csv ~dir ~prefix r in
    Printf.printf "%s: %d files\n" prefix (List.length files);
    failures := !failures + report_validation r
  in
  List.iter
    (fun (f : Core.Experiments.figure) -> dump f.fig f.scenario)
    Core.Experiments.figures;
  Printf.printf "CSV traces written under %s\n" dir;
  if !failures > 0 then 1 else 0

let dump_cmd =
  let dir =
    Arg.(
      value & opt string "figures-out"
      & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Write every figure's traces as CSV.")
    Term.(const dump_figures $ dir $ validate_flag)

(* ---------------- trace export ---------------- *)

(* Decoding stopped early: a torn tail (crash before the final flush) or
   a corrupt record.  Either is a warning — every record before it is
   still used. *)
let warn_stop cmd file = function
  | Some (Obs.Btrace.Torn msg | Obs.Btrace.Corrupt msg) ->
    Printf.eprintf "%s: %s: warning: %s\n" cmd file msg
  | None -> ()

let run_trace_export file format out =
  let data = read_input ~cmd:"trace export" file in
  let export =
    match format with
    | `Jsonl -> Obs.Btrace.export_jsonl data
    | `Perfetto -> Obs.Btrace.export_chrome data
  in
  let result =
    match out with
    | None | Some "-" ->
      let r = export print_string in
      flush stdout;
      r
    | Some path ->
      (* Opened on the first write (or once the export succeeds), so a
         non-trace input never creates [path]. *)
      let oc = lazy (open_output ~flag:"--out" path) in
      Fun.protect
        ~finally:(fun () ->
          if Lazy.is_val oc then close_output (Lazy.force oc))
        (fun () ->
          let r = export (fun s -> output_string (Lazy.force oc) s) in
          if Result.is_ok r then ignore (Lazy.force oc : out_channel);
          r)
  in
  match result with
  | Error msg ->
    Printf.eprintf "trace export: %s: %s\n" file msg;
    2
  | Ok (_version, stop) ->
    warn_stop "trace export" file stop;
    0

(* ---------------- trace stats ---------------- *)

let opt_str to_s = function None -> "-" | Some v -> to_s v

let print_flow_human (st : Obs.Flowstats.stats) =
  let f = opt_str (Printf.sprintf "%.6g") in
  Printf.printf "conn %d\n" st.s_conn;
  Printf.printf "  start time       %.6g s\n" st.s_start_time;
  Printf.printf "  flow size        %s\n"
    (opt_str (Printf.sprintf "%d pkts") st.s_flow_size);
  Printf.printf "  delivered        %d pkts / %d bytes\n" st.s_delivered_pkts
    st.s_delivered_bytes;
  Printf.printf "  sends            %d first, %d retransmits, %d loss events\n"
    st.s_data_sends st.s_retransmits st.s_loss_events;
  Printf.printf "  acked            %d pkts\n" st.s_acked_pkts;
  Printf.printf "  rtt              %d samples, min %s / mean %s / max %s s\n"
    st.s_rtt_samples (f st.s_rtt_min) (f st.s_rtt_mean) (f st.s_rtt_max);
  Printf.printf "  rtt p50 / p99    %s / %s s\n" (f st.s_rtt_p50)
    (f st.s_rtt_p99);
  Printf.printf "  cwnd min / max   %s / %s pkts\n" (f st.s_cwnd_min)
    (f st.s_cwnd_max);
  Printf.printf "  fct              %s s\n" (f st.s_fct);
  Printf.printf "  throughput       %s bytes/s\n" (f st.s_throughput)

let print_stats_table fs =
  let flows = Obs.Flowstats.all fs in
  Printf.printf "%-5s %10s %12s %7s %7s %9s %9s %9s %11s\n" "conn" "dlvd-pkt"
    "dlvd-bytes" "rexmt" "losses" "rtt-p50" "rtt-p99" "fct" "thruput";
  List.iter
    (fun (st : Obs.Flowstats.stats) ->
      let f = opt_str (Printf.sprintf "%.4g") in
      Printf.printf "%-5d %10d %12d %7d %7d %9s %9s %9s %11s\n" st.s_conn
        st.s_delivered_pkts st.s_delivered_bytes st.s_retransmits
        st.s_loss_events (f st.s_rtt_p50) (f st.s_rtt_p99) (f st.s_fct)
        (f st.s_throughput))
    flows;
  let f = opt_str (Printf.sprintf "%.4g") in
  Printf.printf "aggregate: %d flows, jain %s, fct p50/p99 %s/%s s\n"
    (List.length flows)
    (f (Obs.Flowstats.jain fs))
    (f (Obs.Flowstats.fct_quantile fs 0.5))
    (f (Obs.Flowstats.fct_quantile fs 0.99))

let run_trace_stats file flow json =
  let data = read_input ~cmd:"trace stats" file in
  let fs = Obs.Flowstats.create () in
  match Obs.Btrace.decode data (Obs.Flowstats.observer fs) with
  | Error msg ->
    Printf.eprintf "trace stats: %s: %s\n" file msg;
    2
  | Ok (_version, stop) ->
    warn_stop "trace stats" file stop;
    (match flow with
     | Some conn -> (
       match Obs.Flowstats.stats fs ~conn with
       | None ->
         Printf.eprintf "trace stats: %s: no flow for conn %d\n" file conn;
         1
       | Some st ->
         if json then print_endline (Obs.Flowstats.flow_json st)
         else print_flow_human st;
         0)
     | None ->
       if json then print_string (Obs.Flowstats.to_json fs)
       else print_stats_table fs;
       0)

let trace_cmd =
  let export_cmd =
    let file_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"FILE"
            ~doc:"Binary trace written via $(b,--trace-out).")
    in
    let format =
      Arg.(
        value
        & opt (enum [ ("jsonl", `Jsonl); ("perfetto", `Perfetto) ]) `Jsonl
        & info [ "format" ] ~docv:"FORMAT"
            ~doc:
              "Output format: $(b,jsonl) (one JSON object per event) or \
               $(b,perfetto) (Chrome trace_event JSON, loadable in \
               Perfetto / chrome://tracing).")
    in
    let out =
      Arg.(
        value
        & opt (some string) None
        & info [ "out"; "o" ] ~docv:"FILE"
            ~doc:"Write to FILE instead of stdout ($(b,-) means stdout).")
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Convert a binary event trace to JSONL or a Perfetto-loadable \
            Chrome trace.  A torn trailing record (crashed run) or a \
            corrupt record is reported on stderr; every record before it \
            is still exported.")
      Term.(const run_trace_export $ file_arg $ format $ out)
  in
  let stats_cmd =
    let file_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"FILE"
            ~doc:"Binary trace written via $(b,--trace-out).")
    in
    let flow =
      Arg.(
        value
        & opt (some int) None
        & info [ "flow" ] ~docv:"CONN"
            ~doc:"Report a single connection instead of every flow.")
    in
    let json =
      Arg.(
        value & flag
        & info [ "json" ]
            ~doc:
              "Emit the deterministic JSON encoding — byte-identical to \
               the $(b,--flowstats-out) file of the traced run.")
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Recompute per-flow accounting (delivered bytes, retransmits, \
            RTT/FCT percentiles, Jain's index) offline from a binary \
            trace.  Agrees bit-for-bit with the online \
            $(b,--flowstats-out) summary of the run that wrote the \
            trace.")
      Term.(const run_trace_stats $ file_arg $ flow $ json)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Operate on binary event traces.")
    [ export_cmd; stats_cmd ]

(* ---------------- tracecheck ---------------- *)

let run_tracecheck file key =
  let text = read_input ~cmd:"tracecheck" file in
  if String.length text >= 4 && String.sub text 0 4 = Obs.Btrace.magic then begin
    (* Binary traces are audited directly: decode, then check reference
       integrity (every event's conn declared) and time monotonicity. *)
    match Obs.Btrace.validate text with
    | Error msg ->
      Printf.eprintf "%s: INVALID: %s\n" file msg;
      1
    | Ok a ->
      List.iter
        (fun e -> Printf.eprintf "%s: INVALID: %s\n" file e)
        a.Obs.Btrace.audit_errors;
      if a.Obs.Btrace.audit_errors <> [] then 1
      else begin
        (* A plain truncation (crash between batches) keeps a clean
           prefix; note it but pass. *)
        (match a.Obs.Btrace.audit_torn with
         | Some msg -> Printf.eprintf "%s: warning: %s\n" file msg
         | None -> ());
        Printf.printf
          "%s: OK (binary v%d, %d events, %d links, %d conns, time \
           monotone)\n"
          file a.Obs.Btrace.audit_version a.Obs.Btrace.audit_events
          a.Obs.Btrace.audit_links a.Obs.Btrace.audit_conns;
        0
      end
  end
  else
  match Obs.Json.validate_jsonl ~key text with
  | Ok count ->
    Printf.printf "%s: OK (%d events, %S monotone)\n" file count key;
    0
  | Error msg ->
    Printf.eprintf "%s: INVALID: %s\n" file msg;
    1

let tracecheck_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"JSONL or binary ($(b,--trace-out)) trace to validate.")
  in
  let key =
    Arg.(
      value & opt string "t"
      & info [ "key" ] ~docv:"FIELD"
          ~doc:
            "Timestamp field that must be numeric and non-decreasing \
             (JSONL traces only).")
  in
  Cmd.v
    (Cmd.info "tracecheck"
       ~doc:
         "Validate an event trace.  JSONL: every line parses as a JSON \
          object and timestamps never go backwards.  Binary: decodes, \
          checks every event references a declared connection, and \
          checks time monotonicity (a truncated tail is a warning, a \
          corrupt record or a dangling reference an error).")
    Term.(const run_tracecheck $ file_arg $ key)

(* ---------------- replay ---------------- *)

(* Re-instantiate a crash bundle's scenario and check the failure
   reproduces.  The scenario value carries every seed, so the replay is
   deterministic:
   - exception bundles: run to the horizon, expect the same exception;
   - validation bundles: run with validation on, expect the same summary;
   - budget/interrupt bundles: re-run with [max_events] pinned to the
     original's event count (event counts are deterministic even when the
     original stop was wall-clock or a signal) and expect the stop at the
     same event count and simulated time. *)
let run_replay dir =
  match Core.Crash.load dir with
  | Error msg ->
    Printf.eprintf "replay: %s: %s\n" dir msg;
    2
  | Ok (scenario, meta) ->
    Printf.printf "replaying %s\n  scenario: %s\n  kind: %s\n  reason: %s\n"
      dir meta.scenario_name meta.kind meta.reason;
    let ok fmt = Printf.ksprintf (fun s -> Printf.printf "replay OK: %s\n" s; 0) fmt in
    let mismatch fmt =
      Printf.ksprintf (fun s -> Printf.printf "replay MISMATCH: %s\n" s; 1) fmt
    in
    if meta.kind = Core.Crash.kind_exception then begin
      match Core.Runner.run scenario with
      | (_ : Core.Runner.result) ->
        mismatch "run completed; original raised %s"
          (Option.value ~default:"<unknown>" meta.exn_text)
      | exception exn ->
        let text = Printexc.to_string exn in
        (match meta.exn_text with
         | Some orig when orig = text -> ok "reproduced exception %s" text
         | Some orig -> mismatch "raised %s; original raised %s" text orig
         | None -> mismatch "raised %s; original exception text missing" text)
    end
    else if meta.kind = Core.Crash.kind_validation then begin
      let scenario = { scenario with Core.Scenario.validate = true } in
      let r = Core.Runner.run scenario in
      match Core.Runner.validation_report r with
      | Some report when not (Validate.Report.is_clean report) -> (
        let summary = Validate.Report.summary report in
        match meta.validation with
        | Some orig when orig = summary ->
          ok "reproduced validation failure: %s" summary
        | Some orig -> mismatch "validation %s; original %s" summary orig
        | None -> mismatch "validation %s; original summary missing" summary)
      | _ ->
        mismatch "validation clean; original failed with %s"
          (Option.value ~default:"<unknown>" meta.validation)
    end
    else begin
      (* event-budget / wall-budget / interrupt *)
      let budget = Core.Runner.budget ~max_events:meta.events_run () in
      let r = Core.Runner.run ~budget scenario in
      match r.stop with
      | Engine.Sim.Event_budget ran when ran = meta.events_run ->
        let now = r.t1 in
        if meta.sim_now >= scenario.Core.Scenario.warmup && now <> meta.sim_now
        then
          mismatch "stopped after %d events but at t=%.9g; original t=%.9g"
            ran now meta.sim_now
        else ok "stopped after %d events at t=%.9g, as recorded" ran now
      | Engine.Sim.Completed ->
        mismatch "run completed within %d events; original stopped early"
          meta.events_run
      | other ->
        mismatch "stopped with %s; expected an event budget of %d"
          (Engine.Sim.stop_reason_to_string other)
          meta.events_run
    end

let replay_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUNDLE"
          ~doc:"Crash-bundle directory written via $(b,--bundle-dir).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run a crash bundle deterministically and verify the recorded \
          failure reproduces (exit 0 on match, 1 on mismatch).")
    Term.(const run_replay $ dir_arg)

let main =
  Cmd.group
    (Cmd.info "netsim" ~version:"1.0.0"
       ~doc:
         "Dynamics of the BSD 4.3-Tahoe TCP congestion control algorithm \
          under two-way traffic (Zhang, Shenker & Clark, SIGCOMM '91).")
    [
      experiment_cmd; run_cmd; sweep_cmd; plot_cmd; dump_cmd; trace_cmd;
      tracecheck_cmd; replay_cmd;
    ]

(* Cmdliner's own exit for a rejected flag (unknown, or refused by a
   converter such as [checked_int]) is 124; this CLI promises 2. *)
let () =
  exit
    (match Cmd.eval_value main with
     | Ok (`Ok code) -> code
     | Ok (`Help | `Version) -> 0
     | Error (`Parse | `Term) -> 2
     | Error `Exn -> Cmd.Exit.internal_error)
