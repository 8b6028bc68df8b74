(** The sending half of a connection: an infinite (FTP-style) data source
    under window flow control.

    Nonpaced, as in the paper: a data packet is transmitted immediately
    upon receipt of the ACK that opens the window.  Loss recovery is the
    Tahoe go-back-N: on the third duplicate ACK or a retransmission
    timeout the congestion window collapses to one packet and sending
    resumes from the first unacknowledged packet.  Karn's rule is applied
    (no RTT sample spans a retransmission), and the retransmission timer
    backs off exponentially across consecutive timeouts. *)

type t

type loss_reason = Dup_ack | Timeout

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

(** [on_cwnd s f] — [f time ~cwnd ~ssthresh] fires after every change. *)
val on_cwnd : t -> (float -> cwnd:float -> ssthresh:float -> unit) -> unit

(** [on_loss s f] — [f time reason] fires when a loss is detected. *)
val on_loss : t -> (float -> loss_reason -> unit) -> unit

(** [on_send s f] — [f time packet] fires as each data packet is injected. *)
val on_send : t -> (float -> Net.Packet.t -> unit) -> unit

(** Completion time of a sized flow, if reached. *)
val completed_at : t -> float option
