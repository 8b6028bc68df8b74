let bits_of_bytes bytes = 8. *. float_of_int bytes

let transmission_time ~bytes ~rate_bps =
  if rate_bps <= 0. then invalid_arg "Units.transmission_time: rate <= 0";
  bits_of_bytes bytes /. rate_bps

let kbps x = x *. 1_000.
let mbps x = x *. 1_000_000.
let ms x = x /. 1_000.
let usec x = x /. 1_000_000.

let pipe_size ~rate_bps ~delay ~packet_bytes =
  rate_bps *. delay /. bits_of_bytes packet_bytes

let pp_time ppf t =
  if Float.abs t >= 1. then Format.fprintf ppf "%.3fs" t
  else if Float.abs t >= 1e-3 then Format.fprintf ppf "%.3fms" (t *. 1e3)
  else Format.fprintf ppf "%.1fus" (t *. 1e6)

(* Shortest decimal representation that round-trips through
   [float_of_string].  %.9g (the historical trace format) is tried
   first so values it already encodes exactly keep their old spelling;
   %.17g always round-trips IEEE doubles, so the fallback terminates.
   The attempts call the runtime formatter that [Printf]'s %g ends in
   directly, with the same format strings, so the spellings are
   Printf's without parsing a format per call. *)
external format_float : string -> float -> string = "caml_format_float"

let float_repr f =
  let s = format_float "%.9g" f in
  if float_of_string s = f then s
  else
    let s = format_float "%.12g" f in
    if float_of_string s = f then s
    else
      let s = format_float "%.15g" f in
      if float_of_string s = f then s else format_float "%.17g" f
