type prediction = Out_of_phase_one_full | In_phase_neither_full | Boundary

let prediction_to_string = function
  | Out_of_phase_one_full -> "out-of-phase, one line full"
  | In_phase_neither_full -> "in-phase, neither line full"
  | Boundary -> "boundary (w1 = w2 + 2P)"

let predict ~w1 ~w2 ~pipe =
  let big = float_of_int (max w1 w2) in
  let small = float_of_int (min w1 w2) in
  let threshold = small +. (2. *. pipe) in
  if big > threshold then Out_of_phase_one_full
  else if big < threshold then In_phase_neither_full
  else Boundary

let full_threshold = 0.985

let observe ~util1 ~util2 =
  let full u = u >= full_threshold in
  match (full util1, full util2) with
  | true, false | false, true -> Out_of_phase_one_full
  | false, false -> In_phase_neither_full
  | true, true -> Boundary

let verdict prediction ~observed =
  match prediction with
  | Boundary -> true
  | Out_of_phase_one_full | In_phase_neither_full -> prediction = observed
