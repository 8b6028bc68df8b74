(** Topology builders for the paper's network configurations (§2.2).

    The links are the paper's: bottleneck 50 Kbps with propagation delay
    [tau]; host links 10 Mbps with 0.1 ms propagation; host processing
    0.1 ms per packet; bottleneck buffers of [buffer] packets per outgoing
    port ([None] = infinite); host-side and switch-to-host buffers are
    infinite (they never congest). *)

(** Bottleneck bandwidth, bits/s: 50 Kbps. *)
val bottleneck_bw : float

(** Host-link bandwidth, bits/s: 10 Mbps. *)
val host_bw : float

(** Host-link propagation delay, s: 0.1 ms. *)
val host_delay : float

(** Per-packet host processing delay, s: 0.1 ms. *)
val proc_delay : float

(** What varies between the paper's configurations. *)
type params = {
  tau : float;  (** bottleneck propagation delay, s *)
  buffer : int option;  (** bottleneck buffer, packets *)
  gateway : Discipline.kind;  (** bottleneck queueing discipline *)
}

(** [gateway] defaults to drop-tail FIFO (the paper's switches). *)
val params :
  ?gateway:Discipline.kind -> tau:float -> buffer:int option -> unit -> params

(** The Figure-1 dumbbell: Host-1 — Switch-1 — Switch-2 — Host-2. *)
type dumbbell = {
  net : Network.t;
  host1 : int;
  host2 : int;
  switch1 : int;
  switch2 : int;
  fwd : Link.t;  (** bottleneck Switch-1 -> Switch-2 *)
  bwd : Link.t;  (** bottleneck Switch-2 -> Switch-1 *)
}

(** Build the dumbbell and install routes: the two-switch {!chain}. *)
val dumbbell : Engine.Sim.t -> params -> dumbbell

(** A chain of [num_switches] switches, one host per switch, every
    inter-switch link a bottleneck with [params]' characteristics.  Used
    for the §5 four-switch configuration. *)
type chain = {
  cnet : Network.t;
  hosts : int array;  (** hosts.(i) hangs off switches.(i) *)
  switches : int array;
  trunks : (Link.t * Link.t) array;
      (** trunks.(i) joins switches i and i+1: (right-going, left-going) *)
}

val chain : Engine.Sim.t -> params -> num_switches:int -> chain
