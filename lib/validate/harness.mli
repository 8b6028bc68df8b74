(** The full invariant-checking harness for one simulation run.

    {!attach} is the one place that connects the checkers to the model.
    It registers one hook per site, and each hook reads the clock (and
    queue length) and calls the checkers' [observe_*] functions directly:

    - {!Engine.Sim.on_event}: {!Clock}, fed {!Engine.Sim.now}
    - {!Net.Network.on_inject} and [on_deliver]: {!Monotone}, then
      {!Conservation}
    - every link's {!Net.Link.on_drop} and [on_fault]: {!Fifo_order}
      (drop-tail links only), then {!Conservation}
    - a drop-tail link's [on_enqueue] and [on_depart]: {!Fifo_order}
    - a Tahoe connection's {!Tcp.Sender.on_loss} and [on_cwnd]:
      {!Tahoe_rules}

    Where two checkers watch one site, that order is the order of their
    reports at one event.

    Attach after the topology and connections are built and before the
    simulation runs; links or connections added later are not watched.
    Call {!finalize} once the run ends to perform the end-of-run audits
    and obtain the report.  The harness adds about 45% to a run's time
    per event (the validate row of the [bench/e2e] ledger over its
    runner row on longrun-fig3, median of five runs on a 2-vCPU Intel
    Xeon VM, range 43–56%), so it is off by default in
    {!Core.Runner}-driven runs and enabled per scenario. *)

type t

(** [attach net ~conns] creates a report (keeping the first
    {!Report.default_max_kept} violations verbatim) and wires every
    applicable checker. *)
val attach : Net.Network.t -> conns:Tcp.Connection.t list -> t

(** The (possibly still accumulating) report. *)
val report : t -> Report.t

(** The conservation checker, for its packet counts. *)
val conservation : t -> Conservation.t

(** Largest cumulative ACK delivered to [conn]'s sender (0 if none);
    equals the sender's delivered count once its last ACK is processed. *)
val max_ack_delivered : t -> conn:int -> int

(** Run the end-of-run audits (idempotent) and return the report. *)
val finalize : t -> Report.t
