(** Packets exchanged between hosts.

    Following the paper, a connection's data stream is modeled in units of
    maximum-size packets: a data packet carries the sequence number of the
    packet itself, and an ACK carries the cumulative sequence number of the
    next packet the receiver expects. *)

type kind = Data | Ack

type t = {
  id : int;  (** unique per network, for logs *)
  conn : int;  (** owning connection *)
  kind : kind;
  seq : int;
      (** [Data]: index of this packet (0-based).
          [Ack]: next expected data packet (cumulative). *)
  size : int;  (** bytes, including headers *)
  src : int;  (** source host node id *)
  dst : int;  (** destination host node id *)
  retransmit : bool;  (** true if this data packet is a retransmission *)
}

(** Filler for slots that have never held a packet, and the "no packet"
    result of {!Discipline.dequeue} on an empty buffer; compare it with
    [(==)] only.  A slot a packet has left keeps that packet: a flag or
    a range says which slots are live.  Never transmit it or count it in
    any statistic. *)
val none : t

val kind_to_string : kind -> string
