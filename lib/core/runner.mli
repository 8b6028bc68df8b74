(** Builds a {!Scenario} into a live network, runs it, and collects the
    traces and summary metrics every experiment needs. *)

(** Watchdog budgets enforced from inside the event loop (see
    {!Engine.Sim.run_guarded}).  [max_events] bounds the number of events
    executed; [max_wall] bounds wall-clock seconds (measured with
    [Unix.gettimeofday], polled every 1024 events).  [budget ()] sets
    neither. *)
type budget = { max_events : int option; max_wall : float option }

val budget : ?max_events:int -> ?max_wall:float -> unit -> budget

(** The per-event logs a run keeps only when its caller reads them.
    Every run records the two bottleneck queue series, the drop log,
    the utilization meters and the ACK-sojourn fold behind
    {!effective_pipe}.  Reading a log the run did not keep raises
    [Invalid_argument] naming it; it never reads as empty.  The costs
    are per event on the [trace] gate's 600 s fig-3 5+5 run
    ([bench/main.exe trace]), exact counts over a run that keeps no log
    (5.44 retained bytes and 1.745 minor words):
    - [Cwnd]: each sender's cwnd and ssthresh as step series
      ({!Trace.Cwnd_trace}), for the cwnd graphs of Figures 2, 5 and 7
      and {!cwnd_phase}.  +3.76 retained bytes and +0.369 minor words,
      0.25 of them the two floats the sender boxes for its cwnd
      listeners on every fire.
    - [Departures]: one row per departure from either bottleneck
      ({!Trace.Dep_log.records}), for the clustering and ACK-compression
      analyses.  +4.48 retained bytes and +0.023 minor words. *)
type log = Cwnd | Departures

type result = {
  scenario : Scenario.t;
  dumbbell : Net.Topology.dumbbell;
  conns : (Scenario.conn_spec * Tcp.Connection.t) array;
      (** in scenario order; connection ids are 1-based indices *)
  q1 : Trace.Queue_trace.t;  (** bottleneck queue at Switch-1 (fwd direction) *)
  q2 : Trace.Queue_trace.t;  (** bottleneck queue at Switch-2 (rev direction) *)
  cwnds : Trace.Cwnd_trace.t array;
      (** in scenario order; their series read only when the run kept
          [Cwnd] *)
  drops : Trace.Drop_log.t;  (** drops anywhere in the network *)
  dep_fwd : Trace.Dep_log.t;
      (** departures from the fwd bottleneck, with each packet's
          queueing delay; its rows read only when the run kept
          [Departures] *)
  dep_bwd : Trace.Dep_log.t;
  util_fwd : float;  (** fwd bottleneck utilization over the window *)
  util_bwd : float;
  t0 : float;  (** measurement window start (= warmup) *)
  t1 : float;  (** measurement window end (= duration) *)
  delivered : int array;  (** packets acked per connection within the window *)
  validation : Validate.Harness.t option;
      (** the invariant-checking harness, when the scenario (or the
          [NETSIM_VALIDATE] environment variable) enabled validation *)
  fault_plans : (Scenario.fault_site * Faults.Plan.t) list;
      (** live fault plans (with their injection ledgers), one per entry
          in [scenario.faults] *)
  obs : Obs.Probe.t option;
      (** the attached observability probe, when [run] was given an
          enabled setup *)
  stop : Engine.Sim.stop_reason;
      (** [Completed], or why a watchdog stopped the run early; an
          early-stopped result is partial ([t1] is the stop time and
          metered quantities cover only the elapsed window) *)
  bundle : string option;
      (** path of the crash bundle written for this run, if any *)
}

(** Build and run to completion.  When validation is enabled the
    invariant checkers run inside the simulation; a violated invariant is
    printed to stderr (and, when forced via [NETSIM_VALIDATE] rather than
    the scenario flag, raises {!Validation_failed}).

    [logs] (default none) names the {!log}s the run keeps.

    [obs] (default {!Obs.Probe.disabled}) configures the observability
    probe: metrics, trace sinks, and the flight recorder.  The probe is
    attached before the run, armed on the validation report when there
    is one (first violation dumps the flight recorder), and finished
    (trace outputs closed) when the run ends — including when [Sim.run]
    raises, in which case the flight recorder is dumped first and the
    exception re-raised.

    Every run goes through {!Engine.Sim.run_guarded}.  [budget]
    (default: none) and [stop] (an externally-settable cancel predicate,
    e.g. a SIGINT flag) end it either at the horizon or at the first
    exceeded budget / observed stop request, returning a partial result
    tagged with its {!Engine.Sim.stop_reason} instead of raising.  A run
    stopped before warm-up reports zero utilization and deliveries.

    [bundle_dir] arms crash bundles: on a [Sim.run] exception, a
    validation violation, or an early watchdog stop, a self-contained
    replayable bundle is written to [bundle_dir/<scenario-name>] (see
    {!Crash}) and its path returned in [result.bundle].  Bundle writes
    are best-effort — a failed write warns on stderr and never masks
    the original failure. *)
val run :
  ?obs:Obs.Probe.setup ->
  ?logs:log list ->
  ?budget:budget ->
  ?stop:(unit -> bool) ->
  ?bundle_dir:string ->
  Scenario.t ->
  result

(** The finalized validation report, if validation was enabled. *)
val validation_report : result -> Validate.Report.t option

(** Is the [NETSIM_VALIDATE] environment variable set (to anything but
    [""] or ["0"])? *)
val env_forces_validation : unit -> bool

(** Raised by {!run} and {!Multihop.run} when [NETSIM_VALIDATE] forced
    validation on a run that did not ask for it and a checker fired;
    the report is on stderr by then.  The payload names the run and
    summarizes the report (["scenario fig2: 278 violations ..."]), and
    [Printexc.to_string] spells the exception ["validation failed for "]
    followed by it. *)
exception Validation_failed of string

(** Is [text] a {!Validation_failed} as [Printexc.to_string] spells it?
    A {!Sweep_pool} point failure carries only that text. *)
val is_validation_failure : string -> bool

(** Goodput of connection [i] (packets/s) over the measurement window;
    [0.] when the run stopped before warm-up ended (empty window). *)
val goodput : result -> int -> float

(** Drops within the measurement window, chronological. *)
val drops_in_window : result -> Trace.Drop_log.record list

(** The default gap between congestion epochs, 5 s. *)
val epoch_gap : float

(** Congestion epochs within the window (gap defaults to {!epoch_gap}). *)
val epochs : ?gap:float -> result -> Analysis.Epochs.t list

(** Phase classification of the two bottleneck queue series;
    [(Unclassified, nan)] for an empty window (stopped before warm-up). *)
val queue_phase : result -> Analysis.Sync.phase * float

(** Largest length of a queue trace within the window (the Figure 8-9
    queue peaks); [0.] when the window holds no sample. *)
val queue_peak : result -> Trace.Queue_trace.t -> float

(** Phase classification of two connections' cwnd series; as
    {!queue_phase} for an empty window.  Needs the [Cwnd] log. *)
val cwnd_phase : result -> int -> int -> Analysis.Sync.phase * float

(** Mean ACK queueing delay over the window, expressed in data-packet
    transmission times — the paper's effective-pipe contribution (4.2).
    The maximum of the two directions (ACK clusters ride whichever queue
    is congested).  [None] if no ACKs crossed the bottleneck.  Every
    run folds it as the ACKs depart ({!Trace.Dep_log.mean_ack_sojourn}),
    so it needs no log. *)
val effective_pipe : result -> float option
