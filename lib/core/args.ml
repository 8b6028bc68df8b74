(* Validated numeric argument parsing.  [float_of_string] happily
   accepts "nan", "inf" and negative values where the CLI means a
   duration, a rate or a probability, and a bare int flag takes any
   sign; every netsim flag goes through [parse_float] or [parse_int]
   with the range it actually requires, so a bad value fails loudly at
   the command line instead of corrupting a run. *)

type check = Positive | Non_negative | Probability

let check_to_string = function
  | Positive -> "a finite value > 0"
  | Non_negative -> "a finite value >= 0"
  | Probability -> "a probability in [0,1]"

let admits check v =
  (* Explicit [is_finite] first: NaN slips through every comparison
     (e.g. [not (nan < 0.)]), so range checks alone cannot reject it. *)
  Float.is_finite v
  &&
  match check with
  | Positive -> v > 0.
  | Non_negative -> v >= 0.
  | Probability -> v >= 0. && v <= 1.

let check ~what c v =
  if admits c v then Ok v
  else
    Error
      (Printf.sprintf "%s must be %s (got %s)" what (check_to_string c)
         (if Float.is_nan v then "nan" else Printf.sprintf "%g" v))

let parse_float ~what c s =
  match float_of_string_opt (String.trim s) with
  | None -> Error (Printf.sprintf "%s: %S is not a number" what s)
  | Some v -> check ~what c v

let parse_int ~what ~min s =
  match int_of_string_opt (String.trim s) with
  | None -> Error (Printf.sprintf "%s: %S is not an integer" what s)
  | Some v when v < min ->
    Error (Printf.sprintf "%s must be an integer >= %d (got %d)" what min v)
  | Some v -> Ok v
