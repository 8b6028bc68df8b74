(** Named parameter grids for [netsim sweep], the benchmark harness and
    the example programs.

    A grid is a pure recipe: [points ()] builds its scenarios, each at
    the grid's one horizon, and runs nothing.  Feed the result to
    {!Driver.run}. *)

type spec = {
  name : string;  (** CLI name, e.g. ["fig8"] *)
  title : string;  (** one-line description for [--list] *)
  points : unit -> Driver.point list;
      (** in output order; built on demand, so a program that links the
          grids allocates nothing for them at start-up *)
}

(** Fig-8 regime (tau = 10 ms) fixed-window pair swept across bottleneck
    buffer sizes, ending with the paper's infinite buffer. *)
val fig8 : spec

(** Same grid at tau = 1 s (the Fig-9 regime). *)
val fig9 : spec

(** Section 4.3.3 phase criterion over the (w1, w2) window plane.
    Points are row-major over [phase_diagram_windows] (w1 outer, w2
    inner). *)
val phase_diagram : spec

val phase_diagram_windows : int list
val phase_diagram_tau : float

(** Synchronization-mode atlas for adaptive 1+1 traffic over
    (tau, buffer).  Points are row-major over [mode_atlas_buffers]
    (outer) and [mode_atlas_taus] (inner). *)
val mode_atlas : spec

val mode_atlas_taus : float list
val mode_atlas_buffers : int list

(** Utilization vs buffer size, one-way and two-way columns. *)
val buffers : spec

(** Tiny 2x2 grid for CI determinism smoke checks. *)
val smoke : spec

val all : spec list
val find : string -> spec option
