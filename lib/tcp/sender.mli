(** The sending half of a connection: an infinite (FTP-style) data source
    under window flow control.

    Nonpaced, as in the paper: a data packet is transmitted immediately
    upon receipt of the ACK that opens the window.  The window is the
    congestion controller's ({!Cc}, named by [config.cc]); the sender
    reports each loss to it and recovers.  On a retransmission timeout
    sending resumes from the first unacknowledged packet (go-back-N).  On
    the third duplicate ACK (fast retransmit) only the first
    unacknowledged segment is resent and snd_nxt is restored, so the
    packets still in flight are not sent again.  Karn's rule is applied
    (no RTT sample spans a retransmission), and the retransmission timer
    backs off exponentially across consecutive timeouts. *)

type t

val create : Net.Network.t -> Config.t -> t

(** Begin transmitting (called at the connection's start time). *)
val start : t -> unit

(** Handle an arriving ACK packet. *)
val on_ack : t -> Net.Packet.t -> unit

val config : t -> Config.t

(** The running congestion-control instance (named by [config.cc]). *)
val cc : t -> Cc.t

val cwnd : t -> float
val ssthresh : t -> float

(** First unacknowledged packet = number of packets delivered reliably. *)
val snd_una : t -> int

(** Next packet to transmit. *)
val snd_nxt : t -> int

(** Packets currently in flight. *)
val outstanding : t -> int

val rto : t -> Rto.t

(** Distinct data packets handed to the network (first transmissions). *)
val data_sent : t -> int

val retransmits : t -> int
val timeouts : t -> int
val fast_retransmits : t -> int

(** [on_cwnd s f] — [f time ~cwnd ~ssthresh] fires after the controller
    handles an ACK of new data, a loss, or a duplicate ACK during
    recovery, whether or not the window moved. *)
val on_cwnd : t -> (float -> cwnd:float -> ssthresh:float -> unit) -> unit

(** [on_loss s f] — [f time reason] fires when a loss is detected,
    before the controller reacts to it. *)
val on_loss : t -> (float -> Cc.reason -> unit) -> unit

(** [on_send s f] — [f time packet] fires for each data packet,
    retransmissions included, as it is handed to the network (before any
    per-connection RTT skew delays it). *)
val on_send : t -> (float -> Net.Packet.t -> unit) -> unit

(** Completion time of a sized flow, if reached. *)
val completed_at : t -> float option
