(** Link utilization over a measurement window.

    Utilization is the fraction of wall-clock time the link's transmitter
    is busy — the measure the paper quotes (e.g. "the utilization on the
    line is roughly 91%"). *)

type t

(** Start measuring [link] at time [now]. *)
val start : Net.Link.t -> now:float -> t

(** Busy fraction between [start] and [now]; 0 over a zero-width window
    ([now] equal to the start time).
    @raise Invalid_argument if [now] is before the start time. *)
val utilization : t -> now:float -> float

(** Busy seconds between [start] and [now]; 0 over a zero-width window.
    @raise Invalid_argument if [now] is before the start time. *)
val busy_time : t -> now:float -> float
