(** Synchronization-mode classification (paper §4.3).

    Two signals (congestion windows of opposite-direction connections, or
    the two bottleneck queue lengths) are {e in-phase} when they rise and
    fall together and {e out-of-phase} when one rises while the other
    falls.  We resample both step series on a common grid and use the
    Pearson correlation: strongly positive → in-phase, strongly negative →
    out-of-phase. *)

type phase = In_phase | Out_of_phase | Unclassified

val phase_to_string : phase -> string

(** [classify a b ~t0 ~t1 ~dt] correlates the two series over the window.
    Returns the phase and the raw correlation: in-phase at [r >= 0.2],
    out-of-phase at [r <= -0.2], unclassified between. *)
val classify :
  Trace.Series.t ->
  Trace.Series.t ->
  t0:float ->
  t1:float ->
  dt:float ->
  phase * float

(** [lag a b ~t0 ~t1 ~dt ~max_lag] — the time shift of [b] (in seconds,
    multiple of [dt]) that maximizes its correlation with [a], searched
    over [\[-max_lag, +max_lag\]].  For out-of-phase oscillations the best
    lag sits near half the cycle; for in-phase ones near zero.  Returns
    [(lag, correlation_at_lag)], or [None] when the window is too short
    for the requested lag.
    @raise Invalid_argument if [dt <= 0] or [max_lag < 0]. *)
val lag :
  Trace.Series.t ->
  Trace.Series.t ->
  t0:float ->
  t1:float ->
  dt:float ->
  max_lag:float ->
  (float * float) option
