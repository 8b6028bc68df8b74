(** Runs a grid of scenarios — possibly across parallel workers — and
    collects one {!Summary.t} per point.

    {2 Determinism under parallelism}

    Results are bit-identical for any [jobs] value and any executor: a
    point's simulation depends only on its scenario (every RNG is seeded
    from scenario configuration — the fault seed, the discipline seed —
    never from the worker, wall clock or job count), and
    {!Sweep_pool.map} reassembles summaries by point index, not
    completion order. *)

type point = {
  id : string;  (** label in tables and JSON (defaults to scenario name) *)
  params : (string * float) list;  (** grid coordinates, carried to JSON *)
  scenario : Core.Scenario.t;
}

val point :
  ?id:string -> ?params:(string * float) list -> Core.Scenario.t -> point

(** Run one point in-process.  [budget] and [bundle_dir] are passed to
    {!Core.Runner.run}: a budgeted point yields a partial summary when a
    watchdog fires, and [bundle_dir] arms crash bundles for the point. *)
val run_point :
  ?budget:Core.Runner.budget -> ?bundle_dir:string -> point -> Summary.t

(** Run every point; summaries are returned in point order.  The
    executor is picked by {!Sweep_pool} (see there); output is
    byte-identical for every executor.  To compare executors, call
    [Sweep_pool.map ~backend ~jobs run_point points] directly.  [jobs]
    defaults to {!Sweep_pool.default_jobs} (the [NETSIM_JOBS] variable,
    else 1); [budget] / [bundle_dir] are applied per point.
    @raise Sweep_pool.Error when a point failed or is missing. *)
val run :
  ?jobs:int ->
  ?budget:Core.Runner.budget ->
  ?bundle_dir:string ->
  point list ->
  Summary.t list

(** Like {!run} but never raises on point failures: returns the full
    {!Sweep_pool.outcome} (per-point results, point failures, interrupt
    flag).  [stop] is polled between points — when it returns [true]
    the sweep finishes its in-flight points and returns a partial
    outcome with [interrupted = true].  [on_progress] fires after every
    accounted point (see {!Sweep_pool.map_collect}: domain-safe, stderr
    only). *)
val run_collect :
  ?jobs:int ->
  ?on_progress:(Sweep_pool.progress -> unit) ->
  ?stop:(unit -> bool) ->
  ?budget:Core.Runner.budget ->
  ?bundle_dir:string ->
  point list ->
  Summary.t Sweep_pool.outcome

(** {!Summary.list_to_json}. *)
val to_json : Summary.t list -> string

(** Human-readable fixed-width table on stdout. *)
val print_table : Summary.t list -> unit
