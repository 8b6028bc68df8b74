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

(** Sentinel packet for empty slots and "no packet" results (such as
    {!Discipline.dequeue} on an empty buffer); compare it with [(==)]
    only.  Never transmit it or count it in any statistic. *)
val none : t

val kind_to_string : kind -> string
