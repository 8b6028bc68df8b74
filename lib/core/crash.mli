(** Crash bundles: self-contained, replayable postmortems.

    On a [Sim.run] exception, a validation violation or a watchdog kill,
    {!Runner.run} (given a [bundle_dir]) writes a bundle directory:

    {v
    <bundle_dir>/<scenario-name>/meta.json      what happened, and the MD5
                                                of scenario.bin
                                 scenario.bin   the full Scenario.t (Marshal)
                                 flight.txt     flight-recorder ring (if armed)
                                 metrics.json   final metrics snapshot (if any)
    v}

    [Scenario.t] is plain data carrying every seed and spec (CC, RTO,
    faults, discipline), so [scenario.bin] alone re-instantiates the run
    deterministically; [netsim replay <bundle>] does exactly that and
    checks the outcome matches [meta.json].  A bundle replays only on
    the build that wrote it: [scenario.bin] is in OCaml's Marshal format.

    Bundle paths are deterministic ([<dir>/<scenario.name>], no
    timestamps); writing the same scenario's bundle twice overwrites. *)

type meta = {
  scenario_name : string;
  kind : string;  (** one of the [kind_*] constants below *)
  reason : string;  (** human-readable one-liner *)
  exn_text : string option;  (** [Printexc.to_string] of the exception *)
  backtrace : string option;
  validation : string option;  (** [Validate.Report.summary] *)
  events_run : int;  (** engine counter at bundle time *)
  queue_length : int;
  sim_now : float;
  max_events : int option;  (** budgets in force, for replay *)
  max_wall : float option;
  scenario_md5 : string;  (** hex MD5 of [scenario.bin] *)
}

val kind_exception : string
val kind_validation : string
val kind_event_budget : string
val kind_wall_budget : string
val kind_interrupt : string

(** Bundle kind for an early {!Engine.Sim.stop_reason}.
    @raise Invalid_argument on [Completed]. *)
val kind_of_stop : Engine.Sim.stop_reason -> string

(** Deterministic single-line JSON (fixed key order). *)
val meta_to_json : meta -> string

val meta_of_json : string -> (meta, string) result

(** [<dir>/<scenario.name>] — where {!write} puts the bundle. *)
val bundle_path : dir:string -> Scenario.t -> string

(** Write a bundle under [dir].  Best-effort: all failures come back as
    [Error] so a failed postmortem never masks the crash it reports.
    Returns the bundle directory path. *)
val write :
  dir:string ->
  scenario:Scenario.t ->
  sim:Engine.Sim.t ->
  kind:string ->
  reason:string ->
  ?exn_text:string ->
  ?backtrace:string ->
  ?validation:string ->
  ?flight_text:string ->
  ?metrics_json:string ->
  ?max_events:int ->
  ?max_wall:float ->
  unit ->
  (string, string) result

(** Load a bundle directory back into its scenario and meta.  A bundle
    whose [scenario.bin] does not match the digest in [meta.json] (or
    whose meta has none) is refused before anything is unmarshaled, so
    corrupt bytes give [Error], never a crash. *)
val load : string -> (Scenario.t * meta, string) result
