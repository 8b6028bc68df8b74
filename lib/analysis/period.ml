let autocorrelation xs ~max_lag =
  let n = Array.length xs in
  if n < 2 * max_lag || max_lag < 1 then
    invalid_arg "Period.autocorrelation: signal too short";
  let mean = Stats.mean xs in
  let centered = Array.map (fun x -> x -. mean) xs in
  let denom = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. centered in
  if denom <= 1e-12 then Array.make (max_lag + 1) 0.
  else
    Array.init (max_lag + 1) (fun lag ->
        let acc = ref 0. in
        for i = 0 to n - 1 - lag do
          acc := !acc +. (centered.(i) *. centered.(i + lag))
        done;
        !acc /. denom)

(* The least autocorrelation a credible peak has. *)
let threshold = 0.2

let estimate series ~t0 ~t1 ~dt ~max_period =
  if dt <= 0. then invalid_arg "Period.estimate: dt <= 0";
  if max_period <= 2. *. dt then invalid_arg "Period.estimate: max_period too small";
  let xs = Trace.Series.resample series ~t0 ~t1 ~dt in
  let max_lag = int_of_float (max_period /. dt) in
  let max_lag = min max_lag (Array.length xs / 2) in
  if max_lag < 2 then None
  else begin
    let acf = autocorrelation xs ~max_lag in
    (* First local maximum above the threshold, skipping the lag-0 peak
       (wait until the ACF has first dipped below the threshold). *)
    let rec find lag dipped =
      if lag >= max_lag then None
      else if not dipped then find (lag + 1) (acf.(lag) < threshold)
      else if
        acf.(lag) >= threshold
        && acf.(lag) >= acf.(lag - 1)
        && acf.(lag) >= (if lag + 1 <= max_lag then acf.(lag + 1) else neg_infinity)
      then Some (float_of_int lag *. dt)
      else find (lag + 1) dipped
    in
    find 1 false
  end
