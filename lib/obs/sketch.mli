(** Streaming log-bucket quantile sketch (DDSketch-style): bounded
    relative error in fixed memory, so RTT / flow-completion-time
    percentiles scale to 10^4+ flows without storing samples.

    {b Accuracy.} For positive values above 1e-12, [quantile] returns an
    estimate within relative error [alpha] of the exact sample quantile
    (the sorted sample at 0-based index [floor (q * (count - 1))]), up
    to floating-point rounding of the logarithm mapping.  [q = 0] and
    [q = 1] are exact (the true min / max are tracked on the side).
    Values at or below 1e-12 — including zero and negatives — fall into
    a single underflow bucket estimated by the observed minimum.

    {b Memory.} At most [max_buckets] live buckets (plus the underflow
    bucket); one bucket spans a [gamma = (1+alpha)/(1-alpha)] ratio, so
    the default 2048 buckets at [alpha = 0.01] cover ~17 decades before
    the lowest two buckets start collapsing ([collapsed] reports it).

    {b Determinism.} Integer bucket counts, a sorted walk, and
    count-addition merging: the same samples always yield the same
    estimates, bit for bit — required by the byte-identical
    online/offline flow-summary guarantee. *)

type t

val alpha : float
(** 0.01: one-percent relative error. *)

val create : ?max_buckets:int -> unit -> t
(** @raise Invalid_argument unless [max_buckets >= 2]. *)

val add : t -> float -> unit
(** @raise Invalid_argument on nan. *)

val merge : into:t -> t -> unit
(** Add every sample of the second sketch into [into]. *)

val count : t -> int
val is_empty : t -> bool
val sum : t -> float
val mean : t -> float option
val min : t -> float option

val collapsed : t -> bool
(** The bucket cap forced low-tail collapsing: low quantiles may exceed
    the error bound (high quantiles keep it). *)

val quantile : t -> float -> float option
(** [quantile t q] for [q] in [0, 1]; [None] when empty.
    @raise Invalid_argument on nan or out-of-range [q]. *)
