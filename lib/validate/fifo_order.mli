(** Checker: per-link FIFO departure order and occupancy bounds.

    Maintains a shadow queue of packet ids and verifies that (1) packets
    depart a drop-tail link in exactly their enqueue order, (2) reported
    occupancy stays within [0 .. capacity], and (3) drop-tail only rejects
    arrivals, and only when the buffer is full.

    Only meaningful for {!Net.Discipline.Fifo} links: eviction and
    round-robin service are legitimately non-FIFO, so {!Harness} watches
    drop-tail links only.  The [observe_*] functions are its interface:
    the harness calls them from the link's enqueue, depart, drop and fault
    hooks, and tests feed them a synthetic reordered/violating event
    stream. *)

type t

val create : Report.t -> subject:string -> capacity:int option -> t

(** Feed a link event: [qlen] is the occupancy after the event, as passed
    by the {!Net.Link} hooks. *)
val observe_enqueue : t -> time:float -> Net.Packet.t -> qlen:int -> unit

val observe_drop : t -> time:float -> Net.Packet.t -> unit
val observe_depart : t -> time:float -> Net.Packet.t -> qlen:int -> unit

(** Fault events (lib/faults): a [Fault_drop] sanctions the packet's
    coming drop (and removes it from the shadow queue if an outage
    flushed it while queued), so intentional discards are not reported
    as drop-tail violations.  Duplicates and jitter need no handling:
    copies enqueue normally and jitter only delays post-departure
    propagation. *)
val observe_fault : t -> time:float -> Net.Link.fault_event -> Net.Packet.t -> unit

(** Compare the shadow queue against the link's actual end-of-run
    occupancy. *)
val finalize : t -> time:float -> occupancy:int -> unit
