(** Log of packet departures from a link, the raw material for the
    clustering and ACK-compression analyses (§3.1, §4.2) and for the
    effective pipe: which connection's packet left the bottleneck, of
    which kind, when, and how long it spent in the buffer.

    The paper's explanation of the residual idle time (§4.2, §4.3.1) is
    the {e effective pipe}: "whenever an ACK packet has to wait in a
    queue, the queueing delay has the same effect as increasing the pipe
    size".  Each row's [sojourn] measures that wait directly, and the
    log folds the ACKs' sojourns as they depart ({!mean_ack_sojourn}),
    whether or not it keeps the rows. *)

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
    every packet it builds, fault-injected duplicates included.

    [keep] (default [true]) keeps one row per departure, four words,
    for {!records}, {!in_window} and {!total}; without it the log holds
    only the packets pending on the link and the fold.  [t0] (default
    [neg_infinity]) is where the fold starts: ACKs departing before it
    are not counted. *)
val attach : ?keep:bool -> ?t0:float -> Net.Link.t -> t

val link : t -> Net.Link.t

(** Departures in chronological order.
    @raise Invalid_argument naming the Departures log if [t] was
    attached with [~keep:false]; so do {!in_window} and {!total}. *)
val records : t -> record list

val in_window : t -> t0:float -> t1:float -> record list
val total : t -> int

(** The mean sojourn of the ACKs that departed in [\[t0, t1)], [t0] as
    given to {!attach}, skipping [nan] sojourns; [None] if there were
    none.  The sum adds the sojourns oldest first, as a left fold over
    {!in_window}'s ACK rows would, so the mean is bit-identical to that
    fold's.  Meant for the end of a run: [t1] must not precede the last
    departure, and only ACKs departing at exactly [t1] are left out.
    @raise Invalid_argument if an ACK was counted after [t1]. *)
val mean_ack_sojourn : t -> t1:float -> float option
