type trend = Rising | Falling | Steady

let trend_to_string = function
  | Rising -> "rising"
  | Falling -> "falling"
  | Steady -> "steady"

type phase = { t0 : float; t1 : float; q1 : trend; q2 : trend }

let duration p = p.t1 -. p.t0

(* Packets/s: well above any window-growth drift and well below the
   ACK-rate edges. *)
let slope_threshold = 30.

let classify_slopes series ~t0 ~t1 ~dt =
  let xs = Trace.Series.resample series ~t0 ~t1 ~dt in
  let n = Array.length xs in
  Array.init (max 0 (n - 1)) (fun i ->
      let slope = (xs.(i + 1) -. xs.(i)) /. dt in
      if slope > slope_threshold then Rising
      else if slope < -.slope_threshold then Falling
      else Steady)

let phases ?(dt = 0.04) q1_series q2_series ~t0 ~t1 =
  if dt <= 0. then invalid_arg "Chronology.phases: dt <= 0";
  let min_duration = 2. *. dt in
  let a = classify_slopes q1_series ~t0 ~t1 ~dt in
  let b = classify_slopes q2_series ~t0 ~t1 ~dt in
  let n = min (Array.length a) (Array.length b) in
  (* Merge equal consecutive classifications into raw segments. *)
  let raw = ref [] in
  let seg_start = ref 0 in
  for i = 1 to n do
    let boundary = i = n || a.(i) <> a.(!seg_start) || b.(i) <> b.(!seg_start) in
    if boundary then begin
      raw :=
        {
          t0 = t0 +. (float_of_int !seg_start *. dt);
          t1 = t0 +. (float_of_int i *. dt);
          q1 = a.(!seg_start);
          q2 = b.(!seg_start);
        }
        :: !raw;
      seg_start := i
    end
  done;
  let raw = List.rev !raw in
  (* Dissolve blips shorter than min_duration by merging them into the
     preceding phase (extending its end). *)
  let rec absorb acc = function
    | [] -> List.rev acc
    | p :: rest when duration p < min_duration -> (
      match acc with
      | prev :: acc_rest -> absorb ({ prev with t1 = p.t1 } :: acc_rest) rest
      | [] -> absorb acc rest)
    | p :: rest -> (
      (* If the previous kept phase has the same classification (because a
         blip between them was dissolved), merge. *)
      match acc with
      | prev :: acc_rest when prev.q1 = p.q1 && prev.q2 = p.q2 ->
        absorb ({ prev with t1 = p.t1 } :: acc_rest) rest
      | _ -> absorb (p :: acc) rest)
  in
  absorb [] raw

let moving p = p.q1 <> Steady || p.q2 <> Steady

let opposed p =
  match (p.q1, p.q2) with
  | Rising, Falling | Falling, Rising -> true
  | _ -> false

let opposition phase_list =
  match List.filter moving phase_list with
  | [] -> None
  | moving_phases ->
    let good = List.length (List.filter opposed moving_phases) in
    Some (float_of_int good /. float_of_int (List.length moving_phases))

let pp ppf phase_list =
  List.iteri
    (fun i p ->
      Format.fprintf ppf "%2d. [%7.3f, %7.3f]  Q1 %-7s  Q2 %-7s  (%.0f ms)@."
        (i + 1) p.t0 p.t1 (trend_to_string p.q1) (trend_to_string p.q2)
        (1000. *. duration p))
    phase_list
