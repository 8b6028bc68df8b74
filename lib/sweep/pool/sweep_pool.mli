(** Deterministic parallel task pool — the execution layer of the
    scenario-sweep subsystem ({!Sweep}) — with two executors: an
    in-process loop and forked worker processes.

    [map ~jobs f xs] returns exactly [List.map f xs] for any [jobs] and
    either executor: task [i] is always computed as [f xs.(i)] and
    results are reassembled by task index.  As long as [f] itself is
    deterministic (every RNG in this repo is seeded from its scenario,
    never from the process or worker), the results are bit-identical
    regardless of the executor or the job count.

    The executor is picked from what the pool can observe: [jobs <= 1]
    runs {!Seq}; otherwise {!Fork}, or {!Seq} on a non-Unix host.
    [?backend] requests one executor (tests and benchmarks compare
    them) and degrades the same way.

    A task whose [f] raises is a {!point_failure} under both executors.
    Under {!Fork}, a worker that dies (killed, or exiting without
    returning its share) turns each of its unreturned tasks into a
    {!point_failure} naming its wait status; nothing is respawned or
    re-run. *)

(** Which executor runs the tasks; see the module comment.  [Domain]
    runs {!Fork}: it is an alias kept for callers that still name it. *)
type backend = Seq | Fork | Domain

(** A task that raised (exception text and backtrace) or whose worker
    died before returning it (the text names the wait status, e.g.
    ["worker 0 (pid 123) was killed by SIGKILL before returning it"]). *)
type point_failure = { point : int; exn_text : string; backtrace : string }

type error = {
  message : string;
  point_failures : point_failure list;  (** ascending by task index *)
}

(** Raised by {!map} when any task failed or is missing; a printer is
    registered, so [Printexc.to_string] renders the per-point detail. *)
exception Error of error

val error_to_string : error -> string

(** [map ~jobs f xs] is [List.map f xs], computed by up to [jobs]
    workers (default 1).  Under {!Fork}, worker [w] computes tasks
    [w, w+jobs, ...] and ['b] must be marshalable plain data — no
    closures, no custom blocks; do not fork with other threads running,
    nor after spawning a domain (OCaml 5 then refuses [Unix.fork]).
    @raise Error when a task failed or remained unaccounted for. *)
val map : ?backend:backend -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** A live progress snapshot, delivered to [on_progress] after every
    accounted task. *)
type progress = {
  prog_done : int;  (** tasks accounted for (completed or failed) *)
  prog_total : int;
  prog_running : int;  (** live workers; 0 under {!Seq} *)
}

(** Everything {!map} learned, without raising. *)
type 'b outcome = {
  results : 'b option array;
      (** by task index; [None] = interrupted before completion or the
          task failed (see [point_failures]) *)
  point_failures : point_failure list;  (** ascending by task index *)
  interrupted : bool;  (** the [stop] predicate fired *)
}

(** Like {!map}, but returns partial results instead of raising, and
    honours a cooperative [stop] predicate, polled between tasks: when
    it flips to [true] the in-flight tasks finish (their results are
    kept), the rest are skipped, and the outcome has
    [interrupted = true].  Forked workers poll their own copy of [stop]
    and also stop once the parent's copy returns [true], so a flag
    flipped by an inherited signal handler works whether the signal
    reaches the workers or only the parent.

    [on_progress] fires once per accounted task, in the calling
    process, in order, with [prog_done] running 1..n.  It must not
    write to stdout in deterministic-output contexts — progress belongs
    on stderr. *)
val map_collect :
  ?backend:backend ->
  ?jobs:int ->
  ?on_progress:(progress -> unit) ->
  ?stop:(unit -> bool) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome

(** Job count from the [NETSIM_JOBS] environment variable; [1] when the
    variable is unset, empty or not a positive integer. *)
val default_jobs : unit -> int

(** Best-effort CPU count (from [/proc/cpuinfo]; [1] when unreadable).
    Benchmark metadata only — never affects results. *)
val cores : unit -> int

(** CPU count this process may actually use — the popcount of the
    affinity mask in [/proc/self/status] ([Cpus_allowed]), which cgroup
    cpusets, [taskset] and CI runners shrink below {!cores}.  Falls
    back to {!cores} when unreadable.  Benchmark metadata only. *)
val available_cores : unit -> int
