(** Checker: the simulation clock never moves backwards.

    Fed every executed event's time, it reports any regression and any
    NaN.  {!Harness} feeds it {!Engine.Sim.now} from an
    {!Engine.Sim.on_event} observer; tests feed it synthetic (violating)
    time streams. *)

type t

val create : Report.t -> t

(** Feed one executed-event timestamp. *)
val observe : t -> float -> unit
