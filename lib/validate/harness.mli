(** The full invariant-checking harness for one simulation run.

    {!attach} wires every checker into a live network and its connections:

    - {!Clock}: simulation clock monotonicity
    - {!Conservation}: no packet duplicated or lost without a drop
    - {!Monotone}: per-connection ACK/sequence discipline
    - {!Fifo_order}: per-link FIFO order and occupancy bounds (drop-tail
      links only)
    - {!Tahoe_rules}: Tahoe window dynamics (Tahoe connections only)

    Attach after the topology and connections are built and before the
    simulation runs; links or connections added later are not watched.
    Call {!finalize} once the run ends to perform the end-of-run audits
    and obtain the report.  Overhead is roughly 20-30% of runtime
    ([dune exec bench/main.exe -- overhead]), so the harness is off by
    default in {!Core.Runner}-driven runs and enabled per scenario. *)

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
val finalize : t -> now:float -> Report.t
