(** Checker: per-connection sequence-number discipline.

    On injection: a connection's cumulative ACK numbers never decrease;
    never-before-sent data is contiguous (each new segment is exactly the
    successor of the previous new one); packets flagged as retransmissions
    stay at or below the highest sequence already sent.

    On delivery it records the largest cumulative ACK handed to the
    sender, which cross-checks the sender's [snd_una] / delivered count.

    The [observe_*] functions are its interface: {!Harness} calls them
    from the network's inject and deliver hooks, and tests feed them
    synthetic violating event streams. *)

type t

val create : Report.t -> t
val observe_inject : t -> time:float -> Net.Packet.t -> unit
val observe_deliver : t -> time:float -> Net.Packet.t -> unit

(** Largest cumulative ACK delivered to the sender's host for [conn]
    (0 if none). *)
val max_ack_delivered : t -> conn:int -> int
