(** Dominant-oscillation-period estimation.

    The paper quotes cycle lengths ("relatively low frequency oscillations
    with a period of roughly 34 seconds"); we estimate them from a step
    series via the autocorrelation function: resample on a grid, remove
    the mean, and return the lag of the first autocorrelation peak that is
    both a local maximum and at least 0.2. *)

(** [estimate series ~t0 ~t1 ~dt ~max_period] returns the period in
    seconds, or [None] when no credible peak exists (aperiodic signal).
    @raise Invalid_argument if [dt <= 0] or [max_period <= 2 * dt]. *)
val estimate :
  Trace.Series.t ->
  t0:float ->
  t1:float ->
  dt:float ->
  max_period:float ->
  float option

(** Autocorrelation of [xs] at integer lags [0 .. max_lag], normalized so
    lag 0 is 1.  Exposed for tests.
    @raise Invalid_argument if the signal is shorter than [2 * max_lag]. *)
val autocorrelation : float array -> max_lag:int -> float array
