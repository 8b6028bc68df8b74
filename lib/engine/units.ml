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
   %.17g always round-trips IEEE doubles, so the fallback terminates. *)
let float_repr f =
  let try_prec p =
    let s = Printf.sprintf "%.*g" p f in
    if float_of_string s = f then Some s else None
  in
  match try_prec 9 with
  | Some s -> s
  | None -> (
    match try_prec 12 with
    | Some s -> s
    | None -> (
      match try_prec 15 with
      | Some s -> s
      | None -> Printf.sprintf "%.17g" f))
