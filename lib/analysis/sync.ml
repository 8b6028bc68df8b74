type phase = In_phase | Out_of_phase | Unclassified

let phase_to_string = function
  | In_phase -> "in-phase"
  | Out_of_phase -> "out-of-phase"
  | Unclassified -> "unclassified"

(* |r| below this is neither phase. *)
let threshold = 0.2

let classify a b ~t0 ~t1 ~dt =
  let xs = Trace.Series.resample a ~t0 ~t1 ~dt in
  let ys = Trace.Series.resample b ~t0 ~t1 ~dt in
  let r = Stats.pearson xs ys in
  let phase =
    if r >= threshold then In_phase
    else if r <= -.threshold then Out_of_phase
    else Unclassified
  in
  (phase, r)

let lag a b ~t0 ~t1 ~dt ~max_lag =
  if dt <= 0. then invalid_arg "Sync.lag: dt <= 0";
  if max_lag < 0. then invalid_arg "Sync.lag: negative max_lag";
  let xs = Trace.Series.resample a ~t0 ~t1 ~dt in
  let ys = Trace.Series.resample b ~t0 ~t1 ~dt in
  let n = Array.length xs in
  let max_shift = int_of_float (max_lag /. dt) in
  if n < (2 * max_shift) + 4 then None
  else begin
    (* Correlate the overlapping portions at every shift. *)
    let best = ref None in
    for shift = -max_shift to max_shift do
      let len = n - abs shift in
      let x_off = max 0 (-shift) and y_off = max 0 shift in
      let xs' = Array.sub xs x_off len in
      let ys' = Array.sub ys y_off len in
      let r = Stats.pearson xs' ys' in
      match !best with
      | Some (_, best_r) when best_r >= r -> ()
      | _ -> best := Some (float_of_int shift *. dt, r)
    done;
    !best
  end
