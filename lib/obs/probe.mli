(** Probe: wires the observability pillars ({!Metrics}, the {!Btrace}
    writer, the flight recorder, {!Flowstats}) into a live simulation.

    A probe is configured with a {!setup} value and attached once, after
    the network and connections exist but {b before} [Sim.run].  Count
    metrics read the model's own counters ([Net.Link.counters],
    [Net.Network.injected]/[delivered], [Tcp.Sender], [Tcp.Receiver]),
    which count from creation; attaching before the run is what makes
    those counts equal the events a trace attached at the same time
    sees.

    Each consumer installs only the monitor hooks it needs:
    - the metrics registry, one [on_enqueue] per link (the queue-length
      histogram); every other metric is a gauge read at snapshot time;
    - the binary trace writer, every link, connection and network
      hook, each calling the {!Btrace} writer function for its record
      kind with the live values it receives;
    - the flight recorder, a {!Btrace.recorder} wired through the
      same hooks as the trace writer, keeping its latest records in
      memory instead of handing them to a sink;
    - flowstats, [on_cwnd], [on_loss] and [on_send] per connection and
      [on_deliver] on the network.

    A disabled pillar costs nothing — not even an empty-closure call,
    because the model's hook lists stay empty and the zero-hook fast
    path is taken. *)

type setup

(** Build a configuration.

    - [metrics] (default [true]): register gauges and histograms for
      the simulator, every link, and every connection.
    - [series_dt]: additionally sample every metric each [series_dt]
      simulated seconds into step series (see {!Metrics.record}).
    - [btrace]: binary trace sink, handed large batches of the
      {!Btrace} stream ([output_string oc], [Buffer.add_string buf]);
      convert offline with {!Btrace} or [netsim trace export].
    - [flight]: keep a flight recorder of the last [n] events.
    - [flight_sink] (default stderr): where {!dump_flight} writes.
    - [flowstats] (default [false]): per-flow accounting registry
      ({!Flowstats}) fed from its own hooks; zero cost when off. *)
val setup :
  ?metrics:bool ->
  ?series_dt:float ->
  ?btrace:(string -> unit) ->
  ?flight:int ->
  ?flight_sink:(string -> unit) ->
  ?flowstats:bool ->
  unit ->
  setup

(** A setup with everything off; attaching it installs no hooks. *)
val disabled : setup

(** Does this setup observe anything at all? *)
val is_enabled : setup -> bool

type t

(** Install hooks per the setup.  Call it before [Sim.run] (see
    above).  [conns] pairs each connection id with its connection; ids
    are used in metric names and trace tracks. *)
val attach :
  setup -> net:Net.Network.t -> conns:(int * Tcp.Connection.t) list -> t

(** Dump the flight recorder on the first violation recorded in the
    report (subsequent violations do not re-dump). *)
val arm_report : t -> Validate.Report.t -> unit

(** Dump the flight recorder to the configured sink, if there is one. *)
val dump_flight : t -> reason:string -> unit

(** Rendered flight-recorder postmortem: a banner naming [reason] and
    how many of the events ever recorded it shows, the last
    [min n events] of them as JSONL lines (oldest first, rendered as
    [trace export] renders them), and a footer; [None] without a
    recorder.  What crash bundles embed as [flight.txt]. *)
val flight_text : t -> reason:string -> string option

(** Flush buffered binary trace records to the sink.  Idempotent; runs
    on both success and exception paths of {!Core.Runner.run}. *)
val finish : t -> unit

val flowstats : t -> Flowstats.t option

(** Final scalar snapshot of every metric ([[]] without a registry). *)
val final_metrics : t -> (string * float) list

(** Recorded per-metric step series ([[]] without [series_dt]). *)
val series : t -> (string * Trace.Series.t) list

(** Deterministic JSON object of the final snapshot (["{}"] without a
    registry). *)
val metrics_json : t -> string

(** Event records the binary trace writer wrote (0 without [btrace]). *)
val events_traced : t -> int
