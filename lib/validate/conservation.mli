(** Checker: packet conservation.

    Every packet injected at a host must end exactly one way: delivered to
    an endpoint, dropped by a buffer (with the drop observed), or still in
    flight when the run ends.  Duplicate injection, duplicate delivery,
    delivery after a drop, and drops of never-injected packets are all
    violations.  {!finalize} additionally audits that every packet still
    sitting in a link buffer is accounted as in-flight.

    The [observe_*] functions are its interface: {!Harness} calls them
    from the network's inject and deliver hooks and every link's drop and
    fault hooks, and tests feed them synthetic violating event streams. *)

type t

val create : Report.t -> t
val observe_inject : t -> time:float -> Net.Packet.t -> unit
val observe_drop : t -> time:float -> Net.Packet.t -> unit
val observe_deliver : t -> time:float -> Net.Packet.t -> unit

(** Fault events (lib/faults): a [Fault_duplicate] copy is ledgered as a
    fresh injection so the balance still holds under fault injection;
    fault drops arrive through the ordinary drop path. *)
val observe_fault : t -> time:float -> Net.Link.fault_event -> Net.Packet.t -> unit

(** End-of-run audit over the given links' buffer contents. *)
val finalize : t -> time:float -> links:Net.Link.t list -> unit

val injected : t -> int
val delivered : t -> int
val dropped : t -> int

(** [injected - delivered - dropped]. *)
val in_flight : t -> int
