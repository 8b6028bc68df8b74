(** The network: nodes (hosts and switches), links, and packet dispatch.

    Hosts carry transport endpoints (registered per connection id) and add a
    fixed per-packet processing delay on receive.  Switches forward by
    looking up a static routing table (filled in by {!Routing.compute}). *)

type node_kind = Host | Switch

type t

val create : Engine.Sim.t -> t
val sim : t -> Engine.Sim.t

(** [add_host t ~name ~proc_delay] — [proc_delay] is the host processing
    time applied to each received packet (paper: 0.1 ms). *)
val add_host : t -> name:string -> proc_delay:float -> int

val add_switch : t -> name:string -> int

(** [add_link t ~src ~dst ...] creates one simplex link.  [buffer] is the
    output-buffer capacity in packets at [src] for this link ([None] =
    infinite); [discipline] selects the gateway queueing discipline
    (default drop-tail FIFO). *)
val add_link :
  ?discipline:Discipline.kind ->
  t ->
  src:int ->
  dst:int ->
  bandwidth:float ->
  prop_delay:float ->
  buffer:int option ->
  Link.t

(** Two simplex links, one in each direction, with the same parameters.
    Returns [(src_to_dst, dst_to_src)]. *)
val add_duplex :
  ?discipline:Discipline.kind ->
  t ->
  src:int ->
  dst:int ->
  bandwidth:float ->
  prop_delay:float ->
  buffer:int option ->
  Link.t * Link.t

val node_count : t -> int
val node_name : t -> int -> string
val node_kind : t -> int -> node_kind
val links : t -> Link.t list
val out_links : t -> int -> Link.t list

(** Install a route: at [node], packets destined for host [dst] leave on
    [link]. *)
val set_route : t -> node:int -> dst:int -> link:Link.t -> unit

val route : t -> node:int -> dst:int -> Link.t option

(** Register the transport endpoint for connection [conn] on host [host].
    Every packet of that connection arriving at the host is handed to
    [handler] after the host's processing delay. *)
val register_endpoint : t -> host:int -> conn:int -> (Packet.t -> unit) -> unit

(** Inject a packet at its source host: it is routed onto the host's
    outgoing link immediately (transmission then queues as usual). *)
val send_from_host : t -> host:int -> Packet.t -> unit

(** [on_inject t f] observes every packet entering the network via
    {!send_from_host}, before it is offered to the first link (so a packet
    dropped at the first buffer is still observed), handing [f] the
    packet alone: the time is [Engine.Sim.now (sim t)]. *)
val on_inject : t -> (Packet.t -> unit) -> unit

(** [on_deliver t f] observes every packet handed to a host's transport
    endpoint, at the instant the endpoint handler runs (i.e. after the
    host's processing delay), handing [f] the packet alone. *)
val on_deliver : t -> (Packet.t -> unit) -> unit

(** Packets injected via {!send_from_host} since the network was
    created. *)
val injected : t -> int

(** Packets handed to a host's transport endpoint since the network was
    created. *)
val delivered : t -> int

(** Fresh unique packet id. *)
val fresh_packet_id : t -> int

(** Build a packet stamped with a fresh id. *)
val make_packet :
  t ->
  conn:int ->
  kind:Packet.kind ->
  seq:int ->
  size:int ->
  src:int ->
  dst:int ->
  retransmit:bool ->
  Packet.t
