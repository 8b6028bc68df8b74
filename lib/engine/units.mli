(** Unit helpers shared by the network model and experiment configs.

    Times are seconds, sizes are bytes, rates are bits per second —
    everywhere, so conversions happen only through this module. *)

val bits_of_bytes : int -> float

(** Serialization delay of [bytes] on a link of [rate_bps] bits/s.
    @raise Invalid_argument if [rate_bps <= 0.]. *)
val transmission_time : bytes:int -> rate_bps:float -> float

val kbps : float -> float
val mbps : float -> float
val ms : float -> float
val usec : float -> float

(** Bandwidth-delay product in packets, the paper's pipe size
    [P = rate * delay / packet_size]. *)
val pipe_size : rate_bps:float -> delay:float -> packet_bytes:int -> float

(** [pp_time] prints a duration with an adaptive unit (s/ms/us). *)
val pp_time : Format.formatter -> float -> unit

(** Shortest decimal representation of [f] that parses back to exactly
    the same double: [%.9g] when that round-trips (keeping historical
    trace spellings stable), else [%.12g], [%.15g] or [%.17g], which
    always round-trips. *)
val float_repr : float -> string
