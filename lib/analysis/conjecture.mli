(** The §4.3.3 conjecture for the fixed-window, zero-size-ACK system.

    For two fixed windows [w1 >= w2] sharing a bottleneck of pipe size
    [P] (packets per direction):

    - [w1 > w2 + 2P]: queues synchronize out-of-phase and only one line
      is fully utilized;
    - [w1 < w2 + 2P]: queues synchronize in-phase and (strictly) neither
      line is fully utilized.

    {!predict} evaluates the criterion; {!verdict} compares a measured
    run against it. *)

type prediction =
  | Out_of_phase_one_full
  | In_phase_neither_full
  | Boundary  (** w1 = w2 + 2P exactly *)

val prediction_to_string : prediction -> string

(** [predict ~w1 ~w2 ~pipe] — windows may be given in either order. *)
val predict : w1:int -> w2:int -> pipe:float -> prediction

(** Classify a measured run by its two line utilizations, the robust
    observable the conjecture couples to the phase (a line is full at
    utilization 0.985 or more): exactly one line full →
    [Out_of_phase_one_full]; neither full → [In_phase_neither_full];
    both full → [Boundary]. *)
val observe : util1:float -> util2:float -> prediction

(** Does the observation match the prediction?  [Boundary] predictions
    accept anything. *)
val verdict : prediction -> observed:prediction -> bool
