(** Shared-memory parallel execution of a task array on OCaml 5
    domains — the in-process backend behind {!Sweep_pool} (see
    DESIGN.md §6j).

    This module has two build-time implementations selected by the dune
    rules in [lib/sweep/pool/dune]: on OCaml >= 5.0 a real domain pool,
    on 4.14 a stub with [available = false] whose [run] never executes
    ({!Sweep_pool} routes such requests to the fork backend instead).

    The real implementation spawns [jobs - 1] domains and uses the
    calling domain as the last worker.  Workers pull task indices from a
    shared atomic counter in small contiguous chunks (amortizing
    contention without hurting balance) and write each result into a
    caller-provided slot array at the task's own index, so completion
    order — and the number of domains — is invisible in the output:
    byte-identical results for any [jobs], the same guarantee the fork
    backend gives.

    Because all workers share one heap, [f] must not mutate global
    state.  Everything a sweep point touches in this codebase is either
    per-task (scenario-seeded RNGs, per-sim delay lines, per-probe
    metrics registries) or immutable (the [Tcp.Cc_zoo] table); the
    [test_domain_safety] suite pins this by diffing domain-parallel
    output against sequential bytes. *)

val available : bool
(** [true] iff this build has real domain support (OCaml >= 5.0). *)

(** A task whose [f] raised; [index] is the task's position. *)
type task_failure = { index : int; exn_text : string; backtrace : string }

val run :
  jobs:int ->
  stop:(unit -> bool) ->
  on_result:(int -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b option array ->
  task_failure list * bool
(** [run ~jobs ~stop ~on_result f tasks results] computes [f tasks.(i)]
    for every [i], writing successes into [results.(i)] in place.
    Returns the task failures in ascending index order, and whether a
    cooperative stop was observed ([stop] polled between tasks; on
    [true] the in-flight tasks finish, the rest are left [None]).

    [stop] is called from worker domains and must therefore be
    domain-safe; a monotonic [bool ref] flipped by a signal handler —
    what [netsim] uses — is fine.  [on_result] fires once per finished
    task (success or raise), also from worker domains, and must be
    domain-safe too; pass [ignore] when unused.

    The caller guarantees [jobs >= 2], [Array.length results =
    Array.length tasks], and [available = true]; the 4.14 stub raises
    [Failure] if reached. *)
