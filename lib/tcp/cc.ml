type reason = Fast_retransmit | Timeout

(* ------------------------------------------------------------------ *)
(* Specs                                                               *)
(* ------------------------------------------------------------------ *)

type spec = { name : string; params : (string * float) list }

let spec ?(params = []) name = { name; params }

let spec_of_string s =
  let name, rest =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let name = String.trim name in
  if name = "" then Error "empty congestion-control name"
  else if rest = "" then Ok { name; params = [] }
  else
    let parse_kv kv =
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "expected k=v, got %S" kv)
      | Some i ->
        let k = String.trim (String.sub kv 0 i) in
        let v = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
        if k = "" then Error (Printf.sprintf "empty parameter name in %S" kv)
        else (
          match float_of_string_opt v with
          | Some f -> Ok (k, f)
          | None -> Error (Printf.sprintf "parameter %s: bad number %S" k v))
    in
    let rec go acc = function
      | [] -> Ok { name; params = List.rev acc }
      | kv :: rest -> (
        match parse_kv kv with
        | Ok p -> go (p :: acc) rest
        | Error _ as e -> e)
    in
    go [] (String.split_on_char ',' rest)

let spec_to_string { name; params } =
  match params with
  | [] -> name
  | _ ->
    name ^ ":"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=%s" k (Engine.Units.float_repr v))
           params)

(* ------------------------------------------------------------------ *)
(* The interface                                                       *)
(* ------------------------------------------------------------------ *)

module type S = sig
  type t

  val id : string
  val describe : string
  val create : maxwnd:int -> params:(string * float) list -> t
  val on_ack : t -> ackno:int -> newly:int -> bool
  val on_dup_ack : t -> unit
  val on_loss : t -> reason -> highest_sent:int -> unit
  val on_rtt_sample : t -> rtt:float -> unit
  val window : t -> int
  val cwnd : t -> float
  val ssthresh : t -> float
  val in_slow_start : t -> bool
  val in_recovery : t -> bool
  val reset : t -> unit
end

(* ------------------------------------------------------------------ *)
(* Packed instances                                                    *)
(* ------------------------------------------------------------------ *)

(* The variant's module packed with its own state: the sender stays
   monomorphic, and each operation unpacks the module and makes one
   call into it. *)
type t = T : { ops : (module S with type t = 's); st : 's } -> t

let instantiate (module M : S) ~maxwnd ~params =
  if maxwnd < 2 then invalid_arg "Cc.instantiate: maxwnd must be >= 2";
  List.iter
    (fun (k, v) ->
      if not (Float.is_finite v) then
        invalid_arg (Printf.sprintf "%s: parameter %s must be finite" M.id k))
    params;
  T { ops = (module M); st = M.create ~maxwnd ~params }

let name (T { ops = (module M); _ }) = M.id

let on_ack (T { ops = (module M); st; _ }) ~ackno ~newly =
  M.on_ack st ~ackno ~newly

let on_dup_ack (T { ops = (module M); st; _ }) = M.on_dup_ack st

let on_loss (T { ops = (module M); st; _ }) reason ~highest_sent =
  M.on_loss st reason ~highest_sent

let on_rtt_sample (T { ops = (module M); st; _ }) ~rtt = M.on_rtt_sample st ~rtt
let window (T { ops = (module M); st; _ }) = M.window st
let cwnd (T { ops = (module M); st; _ }) = M.cwnd st
let ssthresh (T { ops = (module M); st; _ }) = M.ssthresh st
let in_slow_start (T { ops = (module M); st; _ }) = M.in_slow_start st
let in_recovery (T { ops = (module M); st; _ }) = M.in_recovery st
let reset (T { ops = (module M); st; _ }) = M.reset st

(* ------------------------------------------------------------------ *)
(* Parameter helpers                                                   *)
(* ------------------------------------------------------------------ *)

let param params key ~default =
  match List.assoc_opt key params with Some v -> v | None -> default

let int_param ~who params key ~default =
  let v = param params key ~default:(float_of_int default) in
  if not (Float.is_integer v) then
    invalid_arg (Printf.sprintf "%s: %s must be an integer" who key);
  int_of_float v

let check_params ~who ~allowed params =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then
        invalid_arg
          (Printf.sprintf "%s: unknown parameter %S (allowed: %s)" who k
             (if allowed = [] then "none" else String.concat ", " allowed)))
    params;
  (* A repeated key would silently shadow; reject it. *)
  let keys = List.map fst params in
  if List.length (List.sort_uniq compare keys) <> List.length keys then
    invalid_arg (Printf.sprintf "%s: duplicate parameter" who)
