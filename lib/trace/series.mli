(** An event-driven step time series: a sequence of [(time, value)] samples
    where the value holds from its sample time until the next sample.
    Used for queue lengths and congestion windows, which change at discrete
    instants.  Sample times must be non-decreasing. *)

type t

val create : unit -> t

(** Append a sample.  @raise Invalid_argument if [time] precedes the last
    sample. *)
val add : t -> time:float -> value:float -> unit

(** [add_int t ~time n] is [add t ~time ~value:(float_of_int n)]; the
    conversion happens inside, so a count recorded per event (a queue
    length) is not boxed on its way in. *)
val add_int : t -> time:float -> int -> unit

val length : t -> int
val is_empty : t -> bool

(** [get s i] is the [i]-th sample. @raise Invalid_argument if out of range. *)
val get : t -> int -> float * float

val iter : t -> f:(time:float -> value:float -> unit) -> unit
val to_list : t -> (float * float) list
val of_list : (float * float) list -> t

(** Step-function value at [time]: the last sample at or before [time].
    [None] if [time] precedes the first sample. *)
val value_at : t -> time:float -> float option

(** Evenly resample on [\[t0, t1)] with period [dt] (step semantics).
    Times before the first sample yield the first sample's value.
    @raise Invalid_argument if the series is empty, [dt <= 0], or
    [t1 <= t0]. *)
val resample : t -> t0:float -> t1:float -> dt:float -> float array

(** Extremes of the step function over the window [\[t0, t1\]]; includes the
    value carried into the window.  [None] if the series is empty or starts
    after [t1]. *)
val min_max : t -> t0:float -> t1:float -> (float * float) option

(** Time-weighted mean of the step function over [\[t0, t1\]].
    [None] under the same conditions as {!min_max}. *)
val mean : t -> t0:float -> t1:float -> float option

(** Samples with [t0 <= time < t1], in order. *)
val window : t -> t0:float -> t1:float -> (float * float) list
