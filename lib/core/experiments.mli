(** One entry per table and figure in the paper, each returning a
    {!Report.outcome} of paper-vs-measured checks.

    Each scenario has one horizon, the one EXPERIMENTS.md quotes: 600 s
    simulated with the first 200 s excluded, except the fixed-window
    pairs and TAB-MHOP (400 s, 150 s excluded), TAB-FORMULA's
    fixed-window runs (250 s, 100 s) and TAB-UTIL's two-way rows
    (scaled with the buffer).  Acceptance bands are deliberately
    generous: the goal is the paper's {e shape} (who wins, what
    synchronizes with what, where utilization saturates), not its exact
    third digits. *)

(** {1 Scenario constructors} (exposed for the CLI, figures dumper and
    tests) *)

val scenario_fig2 : Scenario.t
(** One-way, 3 connections, tau = 1 s, B = 20. *)

val scenario_oneway_small_pipe : Scenario.t
(** One-way, 3 connections, tau = 0.01 s, B = 20 (the "nearly 100%" case). *)

val scenario_fig3 : ?buffer:int -> unit -> Scenario.t
(** Two-way, 5 + 5 connections, tau = 0.01 s, B = 30 (or [buffer]). *)

val scenario_fig45 : Scenario.t
(** Two-way, 1 + 1, tau = 0.01 s, B = 20. *)

val scenario_fig67 : Scenario.t
(** Two-way, 1 + 1, tau = 1 s, B = 20. *)

val scenario_fixed :
  ?ack_size:int -> tau:float -> w1:int -> w2:int -> unit -> Scenario.t
(** {!Scenario.fixed_pair} of windows [w1] and [w2], infinite buffers. *)

val scenario_buffer : two_way:bool -> buffer:int -> Scenario.t
(** A TAB-UTIL row at buffer [buffer], named [buf-oneway-B] or
    [buf-twoway-B]: one-way is 3 connections at tau = 1 s; two-way is
    1 + 1 at tau = 0.01 s, its horizon scaled by [max 1 (B / 20)]. *)

(** A figure the paper plots: its name (["fig2"] ... ["fig9"]), a
    caption, and its scenario. *)
type figure = {
  fig : string;
  caption : string;
  scenario : Scenario.t;
}

val figures : figure list
(** The six plotted figures in paper order, as [netsim plot] and
    [netsim dump] use them. *)

(** {1 Experiments} *)

val fig2 : unit -> Report.outcome
val fig3 : unit -> Report.outcome
val fig45 : unit -> Report.outcome
val fig67 : unit -> Report.outcome
val fig8 : unit -> Report.outcome
val fig9 : unit -> Report.outcome

val conjecture_table : unit -> Report.outcome
(** §4.3.3 zero-size-ACK phase criterion, swept over windows and pipes. *)

val buffer_table : unit -> Report.outcome
(** Utilization vs buffer size: one-way rises toward 1, two-way is stuck. *)

val delack_table : unit -> Report.outcome
(** §5 delayed-ACK option: clustering and compression vs window size. *)

val multihop_table : unit -> Report.outcome
(** §5 four-switch chain: the phenomena survive complex topologies. *)

val ablation_table : unit -> Report.outcome
(** Design ablations: modified vs unmodified CA increment; coarse vs
    continuous retransmission timers. *)

val reno_table : unit -> Report.outcome
(** 1's conjecture, part 1: the phenomena are not Tahoe-specific — 4.3-Reno
    fast recovery shows the same synchronization modes and fluctuations. *)

val cczoo_table : unit -> Report.outcome
(** The conjecture across the whole {!Tcp.Cc} zoo: every adaptive variant
    (tahoe, reno, newreno, aimd, compound, ...) through the small-pipe
    two-way configuration, plus the loss-blind oracle as the calibration
    point. *)

val pacing_table : unit -> Report.outcome
(** 1's conjecture, part 2: pacing destroys the clustering that
    ACK-compression requires, and with it the two-way utilization
    penalty. *)

val gateway_table : unit -> Report.outcome
(** Gateways beyond drop-tail FIFO (the related-work axis the paper cites):
    Random Drop and Fair Queueing under two-way traffic. *)

val collapse_table : unit -> Report.outcome
(** The pre-Jacobson baseline (2.1): a fixed advertised window with
    retransmission but no congestion control collapses under load —
    the motivating comparison for the whole line of work. *)

val rtt_table : unit -> Report.outcome
(** 3.1/5: complete clustering depends on identical round-trip times;
    a skew above one packet transmission time leaves only partial
    clustering. *)

val formula_table : unit -> Report.outcome
(** 3.1's closed forms, checked exactly: the fixed-window steady-state
    queue [q = max 0 (sum wnd - 2P)], the underfilled-pipe utilization
    [sum(wnd) * tx / RTT], and the adaptive peak total window
    [C + acceleration]. *)

val all : unit -> Report.outcome list
(** Every experiment above, in paper order. *)

val registry : (string * (unit -> Report.outcome)) list
(** Name -> experiment, in paper order (the names the CLI and bench use:
    "fig2" ... "rtt"). *)

val find : string -> (unit -> Report.outcome) option
