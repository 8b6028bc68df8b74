(** Records a link's buffer occupancy as a step {!Series}.

    A sample is appended at attach time and after every enqueue and
    departure, exactly reproducing the paper's queue-length graphs
    (including the high-frequency alternation between adjacent values as
    packets arrive and depart). *)

type t

val attach : Net.Link.t -> now:float -> t
val series : t -> Series.t
val link : t -> Net.Link.t
