let bits_of_bytes bytes = 8. *. float_of_int bytes

let[@inline] transmission_time ~bytes ~rate_bps =
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
   [float_of_string], among %.9g (the historical trace format, so values
   it already encodes exactly keep their old spelling), %.12g, %.15g and
   %.17g, which always round-trips IEEE doubles.  %.15g is tried first:
   the set of 15-digit decimals contains every 9- and 12-digit one, so
   when %.15g misses, the shorter two miss too, and most simulated times
   need %.17g.  The attempts call the runtime formatter that [Printf]'s
   %g ends in directly, with the same format strings, so the spellings
   are Printf's without parsing a format per call. *)
external format_float : string -> float -> string = "caml_format_float"

let float_repr f =
  let s15 = format_float "%.15g" f in
  if float_of_string s15 <> f then format_float "%.17g" f
  else
    let s = format_float "%.9g" f in
    if float_of_string s = f then s
    else
      let s = format_float "%.12g" f in
      if float_of_string s = f then s else s15
