(** The congestion-control variant zoo: the one table that maps a
    {!Cc.spec} name to its code.  It lists, in this order:

    - ["tahoe"], ["tahoe-unmodified"] — the paper's 4.3-Tahoe machine
      (§2.1): slow start, then the modified (1/floor cwnd) or original
      (1/cwnd) avoidance increment; a loss sets
      [ssthresh <- max (min (cwnd/2) maxwnd) 2] and [cwnd <- 1].  The
      classic entries are pinned to frozen trajectories by the
      differential test suite.
    - ["reno"], ["reno-unmodified"] — 4.3-Reno fast recovery: the third
      duplicate ACK sets [ssthresh] as above but inflates
      [cwnd <- ssthresh + 3], each further duplicate inflates by one,
      and the next ACK of new data deflates [cwnd <- ssthresh].
      Timeouts still collapse to 1.
    - ["newreno"] — Reno plus RFC-6582-style partial-ACK recovery: a
      partial ACK retransmits the next hole and deflates by the amount
      acknowledged instead of ending recovery.
    - ["aimd"] — plain AIMD(a, b): +a per window of ACKs,
      cwnd <- b * cwnd on loss (Avrachenkov et al.); [a=1], [b=0.5]
      reproduce Tahoe-without-slow-start-reset dynamics.
    - ["compound"] — a Compound-TCP-style delay+loss hybrid: a Reno
      loss window plus a delay window fed by RTT samples that backs
      off once the estimated self-induced queue exceeds [gamma].
    - ["oracle"] — rate-pinned calibration controller: window =
      rate x min-RTT (the ideal BDP window), deaf to loss.
    - ["fixed"] — the paper's fixed-window flow control (Figures 8-9).

    The table is a static list, so a new variant joins {!make}, {!names},
    {!zoo}, the conformance battery and, listed before oracle, {!adaptive}
    by being listed. *)

(** Look the spec's name up in the table and instantiate it.
    Raises [Invalid_argument] (listing the known names) for an unknown
    name, and whatever {!Cc.instantiate} raises for bad parameters. *)
val make : Cc.spec -> maxwnd:int -> Cc.t

(** Every key, in table order. *)
val names : string list

(** [(id, describe)] rows, in table order. *)
val zoo : (string * string) list

(** The adaptive entries (every key before ["oracle"], which with
    ["fixed"] closes the table), for sweep grids and the cross-variant
    experiment. *)
val adaptive : string list
