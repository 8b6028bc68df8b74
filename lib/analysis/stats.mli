(** Small numeric toolbox used by the dynamics analyses. *)

val mean : float array -> float
(** @raise Invalid_argument on an empty array. *)

val pearson : float array -> float array -> float
(** Pearson correlation coefficient.  Returns [0.] if either input is
    (numerically) constant.  @raise Invalid_argument if lengths differ or
    are zero. *)

val median : float array -> float
(** @raise Invalid_argument on an empty array. *)
