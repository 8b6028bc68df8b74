(** The receiving half of a connection.

    Maintains the cumulative sequence state and generates ACKs.  With the
    delayed-ACK option off (the paper's default), every arriving data
    packet triggers an immediate ACK.  With it on, an in-order packet is
    acknowledged only when a second packet arrives (one ACK covers both)
    or when a conservative timer expires — the BSD 4.3 behavior described
    in §2.1/§5.  Out-of-order and duplicate packets always trigger an
    immediate (duplicate) ACK, which is what drives fast retransmit. *)

type t

val create : Net.Network.t -> Config.t -> t

(** Handle an arriving data packet. *)
val on_data : t -> Net.Packet.t -> unit

(** Next expected packet = packets delivered in order so far. *)
val rcv_nxt : t -> int

val out_of_order : t -> int

(** Data packets that had already been delivered (spurious retransmits). *)
val duplicates : t -> int

val acks_sent : t -> int

(** ACKs that did not advance the cumulative sequence number. *)
val dup_acks_sent : t -> int

(** ACKs released by the delayed-ACK timer. *)
val delayed_acks_sent : t -> int

(** Packets buffered above a hole right now. *)
val buffered : t -> int

(** [on_ack_sent t f] — [f ~ackno ~delayed ~dup] fires after each ACK
    is handed to the network, at the simulator's current time.
    [delayed] marks ACKs released by the delayed-ACK timer; [dup] marks
    ACKs that did not advance the cumulative sequence number. *)
val on_ack_sent : t -> (ackno:int -> delayed:bool -> dup:bool -> unit) -> unit
