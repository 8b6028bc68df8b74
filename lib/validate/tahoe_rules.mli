(** Checker: Tahoe congestion-window state machine, as quoted in the
    paper's §2.1.

    Between losses, cwnd may grow by at most 1 per ACK in slow start and
    at most [1/⌊cwnd⌋] per ACK in congestion avoidance, with ssthresh
    unchanged.  After a loss (timeout or Tahoe fast retransmit) the next
    window sample must show [cwnd = 1] and
    [ssthresh = max (min (cwnd/2) maxwnd) 2].  cwnd stays within
    [1 .. maxwnd] throughout.

    The [observe_*] functions are its interface: {!Harness} calls them
    from a Tahoe connection's sender loss and cwnd hooks (Reno's
    inflation and deflation, fixed windows and the rest of the zoo follow
    other rules), and tests feed them synthetic violating trajectories. *)

type t

val create : Report.t -> subject:string -> maxwnd:int -> t

(** Note that a loss was detected; the next {!observe_cwnd} sample is
    validated as the post-loss reset. *)
val observe_loss : t -> time:float -> Tcp.Cc.reason -> unit

(** Feed one (cwnd, ssthresh) sample, as fired by {!Tcp.Sender.on_cwnd}. *)
val observe_cwnd : t -> time:float -> cwnd:float -> ssthresh:float -> unit
