type params = {
  granularity : float;
  min_timeout : float;
  max_timeout : float;
  initial_timeout : float;
  max_backoff : int;
}

let default_params =
  {
    granularity = 0.5;
    min_timeout = 1.0;
    max_timeout = 64.0;
    initial_timeout = 3.0;
    max_backoff = 6;
  }

(* The estimators sit in an all-float record, stored flat, so a sample
   boxes nothing. *)
type est = { mutable srtt : float; mutable rttvar : float }

type t = {
  params : params;
  est : est;
  mutable nsamples : int;
  mutable backoff : int;
}

let create params =
  if params.granularity < 0. then invalid_arg "Rto.create: negative granularity";
  if params.min_timeout <= 0. || params.max_timeout < params.min_timeout then
    invalid_arg "Rto.create: bad timeout bounds";
  { params; est = { srtt = 0.; rttvar = 0. }; nsamples = 0; backoff = 0 }

(* Inlined into the sender, which then boxes its sample once, for the
   controller's call, rather than once more for this one. *)
let[@inline] sample t rtt =
  if rtt < 0. || Float.is_nan rtt then invalid_arg "Rto.sample: bad RTT";
  let e = t.est in
  if t.nsamples = 0 then begin
    e.srtt <- rtt;
    e.rttvar <- rtt /. 2.
  end
  else begin
    let err = rtt -. e.srtt in
    e.srtt <- e.srtt +. (err /. 8.);
    e.rttvar <- e.rttvar +. ((Float.abs err -. e.rttvar) /. 4.)
  end;
  t.nsamples <- t.nsamples + 1

let srtt t = if t.nsamples = 0 then None else Some t.est.srtt
let rttvar t = if t.nsamples = 0 then None else Some t.est.rttvar

(* Pure float rounding: truncating through [int_of_float] is undefined
   for values outside the native int range, so a huge [x] (e.g. an
   unclamped backoff product) could round to garbage or even negative.
   Above 2^53 ticks the float grid is coarser than the tick anyway and
   [x] is already (representationally) a multiple of [g]. *)
let[@inline] round_up_to_tick t x =
  let g = t.params.granularity in
  if g <= 0. then x
  else
    let ticks = ceil (x /. g) in
    if Float.is_nan ticks || Float.abs ticks >= 9007199254740992. (* 2^53 *)
    then x
    else g *. ticks

(* Inlined, as are [round_up_to_tick] and [timeout], into the sender's
   timer arming, so the delay reaches [Sim.Timer.set] unboxed. *)
let[@inline] base_timeout t =
  if t.nsamples = 0 then t.params.initial_timeout
  else begin
    let raw = t.est.srtt +. (4. *. t.est.rttvar) in
    let ticked = round_up_to_tick t raw in
    Float.max t.params.min_timeout (Float.min ticked t.params.max_timeout)
  end

let[@inline] timeout t =
  let scaled = base_timeout t *. Float.of_int (1 lsl t.backoff) in
  Float.min scaled t.params.max_timeout

let backoff t = t.backoff <- min (t.backoff + 1) t.params.max_backoff
let reset_backoff t = t.backoff <- 0
let backoff_count t = t.backoff
let samples t = t.nsamples
