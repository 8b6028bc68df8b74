(** A simplex link: an output buffer (under a {!Discipline}) plus a
    transmitter.

    The buffer occupancy counts the packet currently being serialized, which
    matches the paper's capacity analysis [C = floor(B + 2P)] (the switch
    buffer of size [B] includes the packet in service).  With the default
    drop-tail FIFO discipline, an arrival to a full buffer is discarded;
    Random Drop and Fair Queueing may instead evict a queued packet.

    Monitor hooks fire synchronously: [on_enqueue] after a packet is
    accepted, [on_drop] when one is discarded (the arrival, or the evicted
    victim), [on_depart] when a packet finishes serialization and leaves
    the queue.  A hook is handed the packet alone; {!now} and
    {!queue_length} already read the event's time and the length after it. *)

type t

(** What the fault-injection layer (lib/faults) did to a packet.  Fired
    through {!on_fault} {e before} the corresponding drop/enqueue hook, so
    invariant checkers can tell an injected fault from a model bug. *)
type fault_event =
  | Fault_drop of string
      (** the packet was discarded by fault injection (the label names the
          fault kind, e.g. ["loss"], ["burst-loss"], ["outage"]) *)
  | Fault_duplicate
      (** the packet is a fault-injected copy about to be offered to the
          buffer (fresh id, same flow fields) *)
  | Fault_delay of float
      (** the packet's delivery is delayed by this many extra seconds of
          jitter beyond the propagation delay *)

(** Verdict of a fault plan's ingress filter for one offered packet. *)
type verdict = [ `Pass | `Drop of string | `Duplicate ]

(** Counts since the link was created.  A fault discard counts as a drop
    and as a fault; [faults] counts every {!on_fault} event. *)
type counters = {
  mutable enq_data : int;
  mutable enq_ack : int;
  mutable drop_data : int;
  mutable drop_ack : int;
  mutable dep_data : int;
  mutable dep_ack : int;
  mutable dep_bytes : int;
  mutable faults : int;
}

(** [create sim ~id ~name ~src ~dst ~bandwidth ~prop_delay ~buffer] makes an
    idle link.  [buffer = None] means an infinite buffer; [discipline]
    selects the gateway queueing discipline (default drop-tail {!Discipline.Fifo}).
    The [deliver] callback (set with {!set_deliver}) receives each packet at
    the far end, [prop_delay] seconds after its serialization completes.
    @raise Invalid_argument unless [bandwidth > 0.] and [prop_delay >= 0.]
    are finite, or if [buffer] is [Some b] with [b <= 0]. *)
val create :
  ?discipline:Discipline.kind ->
  Engine.Sim.t ->
  id:int ->
  name:string ->
  src:int ->
  dst:int ->
  bandwidth:float ->
  prop_delay:float ->
  buffer:int option ->
  t

val set_deliver : t -> (Packet.t -> unit) -> unit

(** Offer a packet to the output buffer; returns whether it was accepted. *)
val send : t -> Packet.t -> [ `Ok | `Dropped ]

val id : t -> int
val name : t -> string
val src : t -> int
val dst : t -> int
val bandwidth : t -> float
val prop_delay : t -> float

(** The current time of the link's simulator ({!Engine.Sim.now}). *)
val now : t -> float

(** The gateway discipline this link's buffer runs. *)
val discipline : t -> Discipline.kind

(** The configured buffer capacity in packets (including the packet in
    service); [None] means infinite. *)
val capacity : t -> int option

(** Current buffer occupancy (including the packet in service). *)
val queue_length : t -> int

(** Serialization time of [bytes] on this link. *)
val tx_time : t -> bytes:int -> float

(** Cumulative busy (serializing) time up to [now]. *)
val busy_time : t -> now:float -> float

val counters : t -> counters
val total_drops : t -> int

(** Buffer contents, head (in service) first. *)
val contents : t -> Packet.t list

val on_enqueue : t -> (Packet.t -> unit) -> unit
val on_drop : t -> (Packet.t -> unit) -> unit
val on_depart : t -> (Packet.t -> unit) -> unit

(** {2 Fault-plan hook point}

    The fault layer is pay-for-what-you-use: with no plan installed the
    only cost is one [option] check per send and per departure, and no
    state is tracked. *)

(** Install a fault plan.  [ingress] is consulted once per packet offered
    to the link (before the buffer); [extra_delay] once per departing
    packet (extra propagation latency, 0 for none); [clone] must mint a
    copy of a packet with a fresh network-unique id (used for
    [`Duplicate] verdicts; copies bypass the ingress filter). *)
val install_faults :
  t ->
  ingress:(Packet.t -> verdict) ->
  extra_delay:(Packet.t -> float) ->
  clone:(Packet.t -> Packet.t) ->
  unit

val has_faults : t -> bool

(** Take the link down ([true]) or bring it back up ([false]).  Going
    down discards everything in flight — the packet in service, the
    queue, and packets in propagation — as [Fault_drop "outage"] events,
    and every subsequent {!send} is discarded the same way until the link
    comes back up.  Idempotent per direction.
    @raise Invalid_argument if no fault plan is installed. *)
val set_down : t -> bool -> unit

val is_down : t -> bool

(** Observe fault events on this link.  For a fault discard the hook
    fires immediately {e before} the packet's [on_drop] hooks; for a
    duplicate, immediately before the copy's [on_enqueue]/[on_drop]. *)
val on_fault : t -> (fault_event -> Packet.t -> unit) -> unit
