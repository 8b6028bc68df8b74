(** Gateway queueing disciplines.

    The paper's switches are drop-tail FIFO ([Fifo]); the studies it
    contrasts itself with used Random Drop gateways (Hashem; Mankin) and
    Fair Queueing (Demers, Keshav & Shenker).  All three are provided so
    the two-way-traffic phenomena can be examined under each.

    - [Fifo]: single queue; when full, the {e arriving} packet is dropped.
    - [Random_drop]: single FIFO queue; when full, a victim is chosen
      uniformly at random among the queued packets plus the arrival.
      Service order remains FIFO.
    - [Fair_queue]: one FIFO per connection, served round-robin (a
      packet-granularity approximation of bit-by-bit fair queueing); when
      the shared buffer is full, the tail packet of the currently longest
      per-connection queue is dropped.

    The buffer occupancy check counts the packet in service on the
    outgoing link ([~in_service]), preserving the paper's capacity
    analysis [C = floor(B + 2P)]. *)

type kind = Fifo | Random_drop of { seed : int } | Fair_queue

val kind_to_string : kind -> string

type t

(** @raise Invalid_argument if [capacity] is [Some c] with [c <= 0]. *)
val create : kind -> capacity:int option -> t

val kind : t -> kind
val capacity : t -> int option

(** What happened to an arriving packet. *)
type outcome =
  | Accepted  (** stored *)
  | Rejected  (** the arriving packet itself was dropped *)
  | Evicted of Packet.t
      (** the arrival was stored and a previously queued packet dropped *)

(** Offer an arriving packet.  [in_service] is how many packets currently
    occupy the transmitter (0 or 1) and count against the buffer. *)
val enqueue : t -> Packet.t -> in_service:int -> outcome

(** Next packet to transmit, removed from the buffer; {!Packet.none}
    when the buffer is empty. *)
val dequeue : t -> Packet.t

(** Stored packets (excluding any packet in service). *)
val length : t -> int

val is_empty : t -> bool

(** Stored packets in (approximate) service order; for FQ, grouped by
    class in round-robin order. *)
val contents : t -> Packet.t list
