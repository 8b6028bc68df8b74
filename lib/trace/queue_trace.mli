(** Records a link's buffer occupancy as a step {!Series}.

    A sample, stamped {!Net.Link.now}, is appended at attach time and
    after every enqueue and departure, exactly reproducing the paper's
    queue-length graphs (including the high-frequency alternation
    between adjacent values as packets arrive and depart).

    A drop adds a sample only when it changed the occupancy, which is
    what an outage flush does: [Net.Link.set_down] empties the queue
    through drops alone, one sample per discarded packet.  Arrival drops
    (tail drop, Bernoulli and Gilbert–Elliott loss) and random-drop or
    fair-queue evictions (the arrival takes the victim's place) leave
    the occupancy as it was and add no sample. *)

type t

val attach : Net.Link.t -> t
val series : t -> Series.t
val link : t -> Net.Link.t
