(** Log of packet departures from a link, the raw material for the
    clustering and ACK-compression analyses (§3.1, §4.2) and for the
    effective pipe: which connection's packet left the bottleneck, of
    which kind, when, and how long it spent in the buffer.

    The paper's explanation of the residual idle time (§4.2, §4.3.1) is
    the {e effective pipe}: "whenever an ACK packet has to wait in a
    queue, the queueing delay has the same effect as increasing the pipe
    size".  Each row's [sojourn] measures that wait directly. *)

type record = {
  time : float;  (** departure time *)
  conn : int;
  kind : Net.Packet.kind;
  seq : int;
  sojourn : float;
      (** seconds in the buffer, from acceptance to the end of
          serialization; [nan] for a packet already queued when the log
          attached *)
}

type t

(** Watch a link's departures.  Accepted packets are matched to their
    departures by packet id, oldest first, so two packets pending on one
    link with the same id would take each other's enqueue times.  A
    network never makes two: {!Net.Network.fresh_packet_id} numbers
    every packet it builds, fault-injected duplicates included. *)
val attach : Net.Link.t -> t
val link : t -> Net.Link.t

(** Departures in chronological order. *)
val records : t -> record list

val in_window : t -> t0:float -> t1:float -> record list
val total : t -> int

(** Mean sojourn of packets of [kind] departing within the window,
    skipping [nan] sojourns.  [None] if there were none. *)
val mean_sojourn :
  t -> kind:Net.Packet.kind -> t0:float -> t1:float -> float option

(** The §4.2 effective-pipe contribution: mean ACK sojourn divided by
    [data_tx] (the data transmission time), i.e. how many extra
    packet-slots of pipe the queued ACKs add.  [None] if no ACKs
    departed.
    @raise Invalid_argument if [data_tx <= 0]. *)
val effective_pipe_packets :
  t -> data_tx:float -> t0:float -> t1:float -> float option
