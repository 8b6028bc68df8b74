(** Reconstruction of the §4.2 ACK-compression chronology.

    The paper narrates one cycle of the fixed-window square wave in five
    numbered steps: both queues steady; Q1 surges while Q2 collapses (the
    compressed ACK cluster drains); steady again; then the roles swap.
    This module recovers that structure from the two queue traces: each
    instant is classified by the local slope of both queues, adjacent
    instants with the same classification merge into phases, and the
    phase list can be checked against the paper's pattern. *)

type trend = Rising | Falling | Steady

val trend_to_string : trend -> string

type phase = {
  t0 : float;
  t1 : float;
  q1 : trend;
  q2 : trend;
}

val duration : phase -> float

(** [phases q1 q2 ~t0 ~t1 ~dt] — segment the window into phases.  Slopes
    are measured over [dt] (default 0.04 s); a queue is [Rising]/[Falling]
    when its slope exceeds 30 packets/s in magnitude (well above any
    window-growth drift and well below the ACK-rate edges); phases shorter
    than [2 * dt] are dissolved into their neighbors.
    @raise Invalid_argument if [dt <= 0]. *)
val phases :
  ?dt:float ->
  Trace.Series.t ->
  Trace.Series.t ->
  t0:float ->
  t1:float ->
  phase list

(** Among phases where at least one queue moves, the fraction where the
    two queues move in {e opposite} directions — 1.0 when every transfer
    of packets is the §4.2 hand-off between the two queues.  [None] if no
    moving phase exists. *)
val opposition : phase list -> float option

(** Render phases as the paper's numbered chronology. *)
val pp : Format.formatter -> phase list -> unit
