(** Discrete-event simulation driver.

    Events are arbitrary [unit -> unit] closures executed at their scheduled
    simulated time.  The clock only moves when the next event is dequeued;
    within a single instant events run in the order they were scheduled.

    Internally every scheduled obligation is a slot in one of two
    indexed binary heaps over one slot table: cancelling removes it
    immediately and re-arming a {!Timer} re-keys it in place, so the
    per-event hot path performs no allocation (see DESIGN.md, "hot-path
    allocation model").  A timer that has been re-armed while pending
    (a TCP retransmission timer, restarted on every ACK) queues in the
    second heap from then on, so packet events do not sift past its
    far-off deadline.  The loop takes whichever heap's next event comes
    first by (time, scheduling order), so the split changes no delivery
    order.

    {2 Error conventions}

    Every entry point that takes a time-like argument rejects NaN with
    ["Sim.<fn>: NaN <arg>"] and rejects values that would move the clock
    backwards with ["Sim.<fn>: ... is before current time <now>"] (for
    [schedule] and [Timer.set], a negative delay is reported as
    ["Sim.<fn>: negative delay <d>"]). *)

type t

(** A handle on a scheduled event, usable to cancel it (e.g. TCP timers). *)
type handle

val create : unit -> t

(** Current simulated time, in seconds.  Starts at [0.]. *)
val now : t -> float

(** Number of events executed so far. *)
val events_run : t -> int

(** Number of live events currently queued, in both heaps.  Cancelled
    events are removed immediately, so this is an exact count. *)
val queue_length : t -> int

(** [on_event t f] registers an observer called with the clock value each
    time a non-cancelled event is about to execute.  Observers run before
    the event's action, in registration order — validate/trace hooks
    rely on running in the order they were installed.  Observers must not
    schedule or cancel events. *)
val on_event : t -> (float -> unit) -> unit

(** [schedule t ~delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument if [delay] is negative or NaN. *)
val schedule : t -> delay:float -> (unit -> unit) -> handle

(** [at t ~time f] runs [f] at absolute [time].
    @raise Invalid_argument if [time] is in the past or NaN. *)
val at : t -> time:float -> (unit -> unit) -> handle

(** Cancel a scheduled event: it is removed from the event queue on the
    spot (O(log n), no garbage, no deferred compaction).  Cancelling an
    already-run or already-cancelled event is a no-op. *)
val cancel : handle -> unit

(** Has this handle's event neither run nor been cancelled yet? *)
val pending : handle -> bool

(** {2 Reusable timers}

    A [Timer.timer] is allocated once per owner (a TCP connection's
    retransmission timer, a link's transmitter) and re-armed in place for
    the rest of the run: [Timer.set] on an armed timer gives its heap
    entry a new time and a fresh sequence number instead of minting a
    new closure and handle, so per-ACK RTO churn allocates nothing.  The
    first such re-arm while pending moves the timer's entry to the
    scheduler's second heap, where all its later armings go; that heap's
    arrays are made on first use and grow with its own entries.

    Re-arming takes a fresh sequence number at the call site, exactly as
    a cancel + schedule pair would, so same-instant delivery order is
    identical to the closure API's, whichever heap holds the entry. *)
module Timer : sig
  type timer

  (** [create sim f] makes a disarmed timer that runs [f] when it fires.
      Allocates once; every subsequent [set]/[cancel] is allocation-free. *)
  val create : t -> (unit -> unit) -> timer

  (** Replace the timer's action.  Intended for tying the knot when the
      action must close over a record that contains the timer itself. *)
  val set_action : timer -> (unit -> unit) -> unit

  (** [set tm ~delay] (re-)arms the timer to fire at [now + delay],
      replacing any pending arming.
      @raise Invalid_argument if [delay] is negative or NaN. *)
  val set : timer -> delay:float -> unit

  (** [set_at tm ~time] (re-)arms the timer to fire at absolute [time].
      @raise Invalid_argument if [time] is in the past or NaN. *)
  val set_at : timer -> time:float -> unit

  (** Disarm the timer.  No-op if it is not armed. *)
  val cancel : timer -> unit

  (** Is the timer armed (set, not yet fired, not cancelled)? *)
  val pending : timer -> bool
end

(** Run events until the event queue empties or the clock would pass
    [until].  Events scheduled exactly at [until] run.  On return [now t]
    is exactly [until].
    @raise Invalid_argument if [until] is before the current time or NaN. *)
val run : t -> until:float -> unit

(** Run every remaining event.  Intended for draining short simulations;
    diverges if events keep scheduling more events forever. *)
val run_to_completion : t -> unit

(** {2 Guarded execution (watchdogs)}

    [run_guarded] is [run] with budgets enforced from inside the event
    loop, so a runaway simulation terminates gracefully instead of
    hanging its process.  It runs the same loop as {!run}, {!step} and
    {!run_to_completion}, in blocks: the stop predicate and the wall
    clock are polled between blocks of 1024 events, and the event budget
    caps each block. *)

(** Why a guarded run returned. *)
type stop_reason =
  | Completed  (** queue drained or horizon reached — same as {!run} *)
  | Event_budget of int  (** [max_events] reached; payload = events run *)
  | Wall_budget of float
      (** [max_wall] exceeded; payload = elapsed wall seconds *)
  | Stop_requested  (** the [stop] predicate returned [true] *)

val stop_reason_to_string : stop_reason -> string

(** [run_guarded t ~until ?max_events ?max_wall ?wall_clock ?stop ()]
    runs events as {!run} does, returning the reason it stopped.

    - [max_events]: execute at most this many events {e in this call}.
    - [max_wall]: stop once [wall_clock () - start] exceeds this many
      seconds.  [wall_clock] defaults to [Sys.time] (process CPU time);
      pass [Unix.gettimeofday] for wall time — the engine itself stays
      Unix-free.
    - [stop]: cooperative cancellation, polled (like the wall clock)
      every 1024 events.

    On [Completed] the clock lands exactly on [until], as in {!run}; on
    any early stop it stays at the last executed event's time, the
    remaining events stay queued, and the run can be resumed by calling
    [run] or [run_guarded] again.  Event and wall budgets count from
    this call's start, so a resumed run gets a fresh budget.
    @raise Invalid_argument if [until] is before the current time or
    NaN. *)
val run_guarded :
  t ->
  until:float ->
  ?max_events:int ->
  ?max_wall:float ->
  ?wall_clock:(unit -> float) ->
  ?stop:(unit -> bool) ->
  unit ->
  stop_reason

(** Execute a single event if one is pending at or before [until].
    Returns [false] when nothing was run.
    @raise Invalid_argument if [until] is NaN. *)
val step : t -> until:float -> bool
