(** A TCP connection: a {!Sender} on the source host and a {!Receiver} on
    the destination host, wired into the network's per-host endpoint
    dispatch.  The connection pre-exists (the paper does not simulate
    set-up); it begins transmitting at [config.start_time] with an
    infinite amount of data to send. *)

type t

(** Create the connection, register its endpoints on both hosts, and
    schedule its start. *)
val create : Net.Network.t -> Config.t -> t

val config : t -> Config.t
val sender : t -> Sender.t
val receiver : t -> Receiver.t

val cwnd : t -> float
val ssthresh : t -> float

(** Packets acknowledged end-to-end. *)
val delivered : t -> int
