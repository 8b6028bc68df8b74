(** The per-point result of a scenario sweep: the scalar metrics the
    paper's sweeps map across parameter grids, extracted from a
    {!Core.Runner.result}.

    Summaries are plain marshalable data (no traces, no closures), so
    they can cross the {!Sweep_pool} worker socket. *)

type t = {
  id : string;  (** scenario name, unique within a sweep *)
  params : (string * float) list;  (** grid coordinates of this point *)
  cc : string;
      (** distinct congestion-controller specs across the point's
          connections, comma-joined in first-use order *)
  util_fwd : float;
  util_bwd : float;
  drops_window : int;  (** drops inside the measurement window *)
  drops_total : int;
  delivered : int list;  (** packets acked per connection in the window *)
  phase : string;  (** queue synchronization: in-phase / out-of-phase / ? *)
  phase_corr : float;
  epoch_count : int;
  mean_drops_per_epoch : float option;
  single_loser : float option;
      (** fraction of epochs in which one connection takes every drop *)
  q1_max : float;  (** peak bottleneck queue, fwd, in the window *)
  q2_max : float;
  effective_pipe : float option;
      (** mean ACK queueing delay in data-packet transmission times *)
  jain : float;
      (** Jain's fairness index over per-connection delivered packets *)
  fct_p50 : float option;
      (** median flow-completion time across the point's sized flows
          (via {!Obs.Sketch}; [None] when no flow completed) *)
  fct_p99 : float option;
  metrics : (string * float) list;
      (** final {!Obs.Metrics} snapshot of the point's run, in
          registration order ([[]] when the run carried no registry) *)
}

val of_result : id:string -> ?params:(string * float) list ->
  Core.Runner.result -> t

(** Deterministic JSON object: fixed key order, fixed float formatting
    ([%.9g]; NaN and infinities become [null]) — equal summaries encode
    to equal bytes, which is what the [--jobs N] vs [--jobs 1] identity
    check diffs. *)
val to_json : t -> string

(** JSON array of {!to_json} objects, newline-separated, trailing
    newline. *)
val list_to_json : t list -> string
