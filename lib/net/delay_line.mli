(** Packets waiting out a delay: link propagation and host processing.

    A delay line is a pool of cells, each owning one persistent
    {!Engine.Sim.Timer} and a packet slot, so a hand-off schedules no
    closure and no handle.  The pool grows to the peak number of packets
    concurrently in the line and is reused from then on.  Each push takes
    a fresh engine sequence number, exactly as a one-shot
    {!Engine.Sim.schedule} would, so same-instant delivery order does not
    depend on which cell carries a packet. *)

type t

(** An empty line.  Deliveries go to the callback set with
    {!set_deliver}. *)
val create : Engine.Sim.t -> t

val set_deliver : t -> (Packet.t -> unit) -> unit

(** [push t p ~delay] hands [p] to the deliver callback [delay] seconds
    from now.
    @raise Invalid_argument if [delay] is negative or NaN. *)
val push : t -> Packet.t -> delay:float -> unit

(** [flush t f] cancels every pending delivery and passes the packets to
    [f] instead, in packet-id order.  The line is empty before [f] first
    runs. *)
val flush : t -> (Packet.t -> unit) -> unit
