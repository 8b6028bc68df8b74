(** Validated numeric argument parsing for the CLI.

    [float_of_string] accepts ["nan"], ["inf"] and negative values
    where netsim flags mean durations, rates or probabilities, and int
    flags take any sign; these helpers reject non-finite and
    out-of-range values with an error naming the offending flag. *)

type check =
  | Positive  (** finite and > 0: durations, rates, intervals *)
  | Non_negative  (** finite and >= 0: warmup, skew, jitter, times *)
  | Probability  (** finite and in [0,1]: loss / duplication rates *)

(** Human-readable requirement, e.g. ["a finite value > 0"]. *)
val check_to_string : check -> string

(** Does [v] satisfy the check?  NaN never does. *)
val admits : check -> float -> bool

(** [check ~what c v] is [Ok v] or an error naming [what] and the
    requirement. *)
val check : what:string -> check -> float -> (float, string) result

(** Parse then {!check}; malformed input also names [what]. *)
val parse_float : what:string -> check -> string -> (float, string) result

(** Parse an integer that must be at least [min]; malformed or
    out-of-range input gives an error naming [what] and the bound. *)
val parse_int : what:string -> min:int -> string -> (int, string) result
