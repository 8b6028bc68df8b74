(** A live fault plan: a {!Spec} instantiated on one {!Net.Link}.

    {!install} wires the spec into the link's fault hook point
    ({!Net.Link.install_faults}), schedules any outage transitions on the
    simulation clock, and starts a ledger of every fault actually
    injected.  Randomness comes from dedicated {!Engine.Rng} splitmix64
    streams keyed by [(seed, link id, fault kind)], so a run is exactly
    reproducible and one link's fault sequence is independent of every
    other link's plan (and, for outage flapping, of the traffic
    entirely).

    The ledger is what lets fault runs stay verifiable: injected drops
    are announced to invariant checkers through the link's fault events
    (so {!Validate.Conservation} still balances and
    {!Validate.Fifo_order} knows the drop was intentional), and the
    per-connection counts bound how much payload each sender can possibly
    have delivered. *)

type t

(** [install net link ~seed spec] attaches [spec] to [link].  Call after
    the topology is built and before the simulation runs.  A spec with a
    [flap] self-reschedules forever: drive the simulation with
    [Sim.run ~until], not [run_to_completion].
    @raise Invalid_argument if the link already has a plan, or (via
    [Sim.at]) if a scheduled outage window starts in the simulated
    past. *)
val install : Net.Network.t -> Net.Link.t -> seed:int -> Spec.t -> t

val link : t -> Net.Link.t
val spec : t -> Spec.t
val seed : t -> int

(** {2 Ledger} — counts of faults actually injected so far *)

(** Packets discarded by the loss model (Bernoulli or Gilbert–Elliott). *)
val losses : t -> int

(** Packets discarded because the link was down (including those flushed
    on a cut). *)
val outage_drops : t -> int

(** Fault-injected copies offered to the buffer. *)
val duplicates : t -> int

(** Departures that received extra jitter latency. *)
val delayed : t -> int

(** Largest extra latency applied (s). *)
val max_delay : t -> float

(** Data packets of connection [conn] discarded by any fault. *)
val data_losses_for : t -> conn:int -> int

(** Fault-injected copies of connection [conn]'s data packets. *)
val data_duplicates_for : t -> conn:int -> int

(** One-line human-readable ledger. *)
val summary : t -> string
