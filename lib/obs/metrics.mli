(** Metrics registry: a snapshot-time view of the model, plus
    fixed-bucket histograms.

    A metric is either a gauge function ({!gauge_fn}) or a histogram.
    Gauge functions read the model's own state — including its event
    counters ([Net.Link.counters], [Tcp.Sender], [Tcp.Receiver],
    [Net.Network]) — and are called only when a snapshot or a recorder
    sample is taken, so wiring one costs nothing during the run.  A
    histogram is an int array filled by {!observe}, whose per-event cost
    is a short bucket scan and a store, with no allocation.
    Registration happens once, at attach time.

    Snapshots list metrics in registration order, which makes their JSON
    encoding a pure function of the registry contents (the sweep
    determinism diff relies on this). *)

type t
type histogram

val create : unit -> t

(** A gauge computed on demand: [f ()] is called at snapshot time only.
    @raise Invalid_argument if [name] is already registered. *)
val gauge_fn : t -> string -> (unit -> float) -> unit

(** [histogram t name ~bounds] registers a histogram with one bucket per
    upper bound plus an overflow bucket.
    @raise Invalid_argument if [bounds] is empty, not strictly
    increasing, or [name] is already registered. *)
val histogram : t -> string -> bounds:float array -> histogram

(** Record one observation of a count (a queue length): the count of
    the first bucket whose upper bound is [>= float_of_int n] (or the
    overflow bucket) is incremented. *)
val observe : histogram -> int -> unit

(** Scalar view of every metric, in registration order.  A histogram
    expands to cumulative [name.le_<bound>] entries, [name.le_inf], and
    [name.count]. *)
val snapshot : t -> (string * float) list

(** Deterministic JSON object over {!snapshot}: fixed key order,
    shortest round-trip floats ({!Json.float_repr}), integral values
    printed without a fractional part, non-finite values as [null]. *)
val to_json : t -> string

(** {2 Periodic snapshots into step series}

    A recorder samples every metric registered at attach time on a fixed
    simulated-time cadence, appending to one {!Trace.Series.t} per
    expanded metric name.  The sampling event is pure observation — it
    reads metrics and appends to series, never touches model state — so
    enabling it cannot change simulation results.  A tick walks
    preallocated rows fixed at {!record} time (no snapshot lists, no
    name strings), so sampling overhead is just the gauge calls, the
    histogram reads and the series appends. *)

type recorder

(** [record t sim ~dt] samples immediately and then every [dt] seconds.
    Metrics registered after this call are not recorded.
    @raise Invalid_argument if [dt <= 0] or is NaN. *)
val record : t -> Engine.Sim.t -> dt:float -> recorder

(** The recorded series, in registration order. *)
val recorder_series : recorder -> (string * Trace.Series.t) list
