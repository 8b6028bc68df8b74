(* The built-in congestion-control variants and the table that names them.

   The classic entries (tahoe and reno families, fixed) are held step
   for step to frozen trajectories (test/cc_vectors.txt, replayed by
   test_cc_differential): any change here must keep reproducing them.

   Every mutable float lives in an all-float record or a one-cell float
   array, both stored flat: assigning a float field of a mixed record
   boxes the float, and these fields change on every ACK or RTT
   sample. *)

(* A controller's two windows. *)
type win = { mutable cwnd : float; mutable ssthresh : float }

(* ------------------------------------------------------------------ *)
(* Classic 4.3 window arithmetic (Tahoe / Reno / NewReno)               *)
(* ------------------------------------------------------------------ *)

module Classic = struct
  type t = {
    maxwnd : int;
    modified_ca : bool;
    fast_recovery : bool;  (* Reno-style inflation on the 3rd dup ACK *)
    newreno : bool;  (* partial-ACK recovery *)
    w : win;
    mutable recovering : bool;
    mutable recover : int;  (* NewReno recovery point (highest_sent at loss) *)
  }

  let make ~maxwnd ~modified_ca ~fast_recovery ~newreno =
    {
      maxwnd;
      modified_ca;
      fast_recovery;
      newreno;
      w = { cwnd = 1.; ssthresh = float_of_int maxwnd };
      recovering = false;
      recover = -1;
    }

  let reset t =
    t.w.cwnd <- 1.;
    t.w.ssthresh <- float_of_int t.maxwnd;
    t.recovering <- false;
    t.recover <- -1

  let window t =
    max 1 (int_of_float (Float.min t.w.cwnd (float_of_int t.maxwnd)))

  let cap t =
    let w = t.w in
    if w.cwnd > float_of_int t.maxwnd then w.cwnd <- float_of_int t.maxwnd

  let additive_increase t =
    let w = t.w in
    if w.cwnd < w.ssthresh then w.cwnd <- w.cwnd +. 1.
    else begin
      let divisor =
        if t.modified_ca then Float.of_int (window t) else w.cwnd
      in
      w.cwnd <- w.cwnd +. (1. /. divisor);
      (* Snap near-integers: accumulating 1/wnd in binary floating point
         can land a hair below the integer (e.g. 9.999999999999996 after
         nine 1/9 steps), which would break the modified algorithm's
         one-per-epoch guarantee. *)
      let nearest = Float.round w.cwnd in
      if Float.abs (w.cwnd -. nearest) < 1e-9 then w.cwnd <- nearest
    end;
    cap t

  let halve_ssthresh t =
    let w = t.w in
    w.ssthresh <-
      Float.max (Float.min (w.cwnd /. 2.) (float_of_int t.maxwnd)) 2.

  let on_timeout t =
    halve_ssthresh t;
    t.w.cwnd <- 1.;
    t.recovering <- false

  let on_loss t (reason : Cc.reason) ~highest_sent =
    match reason with
    | Cc.Timeout -> on_timeout t
    | Cc.Fast_retransmit ->
      if not t.fast_recovery then on_timeout t
      else if t.newreno && t.recovering then
        (* NewReno: dup-ACK bursts inside an ongoing recovery must not
           re-halve (RFC 6582); the sender still retransmits the hole. *)
        ()
      else begin
        halve_ssthresh t;
        t.w.cwnd <- t.w.ssthresh +. 3.;
        t.recovering <- true;
        t.recover <- highest_sent;
        cap t
      end

  let on_ack t ~ackno ~newly =
    if t.recovering then
      if t.newreno && ackno <= t.recover then begin
        (* Partial ACK: stay in recovery, deflate by the amount newly
           acknowledged plus one for the hole about to be retransmitted,
           and ask the sender to resend the first unacknowledged
           segment. *)
        t.w.cwnd <- Float.max (t.w.cwnd -. float_of_int newly +. 1.) 1.;
        cap t;
        true
      end
      else begin
        t.w.cwnd <- t.w.ssthresh;
        t.recovering <- false;
        false
      end
    else begin
      additive_increase t;
      false
    end

  let on_dup_ack t =
    if t.fast_recovery && t.recovering then begin
      t.w.cwnd <- t.w.cwnd +. 1.;
      cap t
    end

  let cwnd t = t.w.cwnd
  let ssthresh t = t.w.ssthresh
  let in_slow_start t = t.w.cwnd < t.w.ssthresh
  let in_recovery t = t.recovering
end

let classic_module ~id_ ~describe_ ~modified_ca ~fast_recovery ~newreno =
  (module struct
    type t = Classic.t

    let id = id_
    let describe = describe_

    let create ~maxwnd ~params =
      Cc.check_params ~who:id ~allowed:[] params;
      Classic.make ~maxwnd ~modified_ca ~fast_recovery ~newreno

    let on_ack = Classic.on_ack
    let on_dup_ack = Classic.on_dup_ack
    let on_loss = Classic.on_loss
    let on_rtt_sample _ ~rtt:_ = ()
    let window = Classic.window
    let cwnd = Classic.cwnd
    let ssthresh = Classic.ssthresh
    let in_slow_start = Classic.in_slow_start
    let in_recovery = Classic.in_recovery
    let reset = Classic.reset
  end : Cc.S)

(* ------------------------------------------------------------------ *)
(* AIMD(a, b) — Avrachenkov et al.                                      *)
(* ------------------------------------------------------------------ *)

module Aimd = struct
  type t = {
    maxwnd : int;
    a : float;  (* additive increment per window of ACKs *)
    b : float;  (* multiplicative decrease factor *)
    w : win;
  }

  let id = "aimd"

  let describe =
    "AIMD(a,b): +a per window, cwnd*b on loss (a=1, b=0.5)"

  let create ~maxwnd ~params =
    Cc.check_params ~who:id ~allowed:[ "a"; "b" ] params;
    let a = Cc.param params "a" ~default:1. in
    let b = Cc.param params "b" ~default:0.5 in
    if a <= 0. then invalid_arg "aimd: a must be > 0";
    if b <= 0. || b >= 1. then invalid_arg "aimd: b must be in (0, 1)";
    { maxwnd; a; b; w = { cwnd = 1.; ssthresh = float_of_int maxwnd } }

  let window t =
    max 1 (int_of_float (Float.min t.w.cwnd (float_of_int t.maxwnd)))

  let cap t =
    let w = t.w in
    if w.cwnd > float_of_int t.maxwnd then w.cwnd <- float_of_int t.maxwnd

  let on_ack t ~ackno:_ ~newly:_ =
    let w = t.w in
    if w.cwnd < w.ssthresh then w.cwnd <- w.cwnd +. 1.
    else w.cwnd <- w.cwnd +. (t.a /. Float.of_int (window t));
    cap t;
    false

  let decrease t =
    let w = t.w in
    w.ssthresh <-
      Float.max (Float.min (t.b *. w.cwnd) (float_of_int t.maxwnd)) 2.

  let on_loss t (reason : Cc.reason) ~highest_sent:_ =
    decrease t;
    match reason with
    | Cc.Timeout -> t.w.cwnd <- 1.
    | Cc.Fast_retransmit -> t.w.cwnd <- Float.max (t.b *. t.w.cwnd) 1.

  let on_dup_ack _ = ()
  let on_rtt_sample _ ~rtt:_ = ()
  let cwnd t = t.w.cwnd
  let ssthresh t = t.w.ssthresh
  let in_slow_start t = t.w.cwnd < t.w.ssthresh
  let in_recovery _ = false

  let reset t =
    t.w.cwnd <- 1.;
    t.w.ssthresh <- float_of_int t.maxwnd
end

(* ------------------------------------------------------------------ *)
(* Compound-style delay+loss hybrid — Ghosh et al.                      *)
(* ------------------------------------------------------------------ *)

module Compound = struct
  (* Effective window = cwnd (Reno loss window) + dwnd (delay window).
     RTT samples estimate the connection's self-induced queue
     diff = window * (1 - base_rtt / rtt); dwnd grows while diff stays
     under [gamma] packets and backs off proportionally above it, so
     the delay component claims spare pipe without standing queue. *)
  type delay = { mutable dwnd : float; mutable base_rtt : float }

  type t = {
    maxwnd : int;
    gamma : float;  (* queue target, packets *)
    dalpha : float;  (* dwnd gain per under-target RTT sample *)
    zeta : float;  (* dwnd decay per packet of over-target queue *)
    loss : Classic.t;
    d : delay;
  }

  let id = "compound"

  let describe =
    "delay+loss hybrid: Reno cwnd + delay window with queue target gamma"

  let create ~maxwnd ~params =
    Cc.check_params ~who:id ~allowed:[ "gamma"; "dalpha"; "zeta" ] params;
    let gamma = Cc.param params "gamma" ~default:3. in
    let dalpha = Cc.param params "dalpha" ~default:1. in
    let zeta = Cc.param params "zeta" ~default:0.5 in
    if gamma <= 0. then invalid_arg "compound: gamma must be > 0";
    if dalpha <= 0. then invalid_arg "compound: dalpha must be > 0";
    if zeta <= 0. then invalid_arg "compound: zeta must be > 0";
    {
      maxwnd;
      gamma;
      dalpha;
      zeta;
      loss =
        Classic.make ~maxwnd ~modified_ca:true ~fast_recovery:true
          ~newreno:false;
      d = { dwnd = 0.; base_rtt = infinity };
    }

  let effective t = t.loss.Classic.w.cwnd +. t.d.dwnd

  let window t =
    max 1 (int_of_float (Float.min (effective t) (float_of_int t.maxwnd)))

  (* Keep cwnd + dwnd inside the advertised window. *)
  let cap_dwnd t =
    t.d.dwnd <-
      Float.max 0.
        (Float.min t.d.dwnd (float_of_int t.maxwnd -. t.loss.Classic.w.cwnd))

  let on_ack t ~ackno ~newly =
    ignore (Classic.on_ack t.loss ~ackno ~newly : bool);
    cap_dwnd t;
    false

  let on_loss t (reason : Cc.reason) ~highest_sent =
    (* The loss threshold reflects the whole effective window, not just
       the loss component: fold dwnd in before the classic reaction. *)
    (match reason with
     | Cc.Timeout ->
       t.loss.Classic.w.cwnd <- effective t;
       Classic.on_loss t.loss reason ~highest_sent;
       t.d.dwnd <- 0.
     | Cc.Fast_retransmit ->
       t.loss.Classic.w.cwnd <- effective t;
       t.d.dwnd <- t.d.dwnd /. 2.;
       Classic.on_loss t.loss reason ~highest_sent);
    cap_dwnd t

  let on_dup_ack t = Classic.on_dup_ack t.loss

  let on_rtt_sample t ~rtt =
    if rtt > 0. then begin
      let d = t.d in
      if rtt < d.base_rtt then d.base_rtt <- rtt;
      let diff = Float.of_int (window t) *. (1. -. (d.base_rtt /. rtt)) in
      if diff < t.gamma then d.dwnd <- d.dwnd +. t.dalpha
      else d.dwnd <- Float.max 0. (d.dwnd -. (t.zeta *. (diff -. t.gamma)));
      cap_dwnd t
    end

  let cwnd t = effective t
  let ssthresh t = t.loss.Classic.w.ssthresh
  let in_slow_start t = Classic.in_slow_start t.loss
  let in_recovery t = Classic.in_recovery t.loss

  let reset t =
    Classic.reset t.loss;
    t.d.dwnd <- 0.;
    t.d.base_rtt <- infinity
end

(* ------------------------------------------------------------------ *)
(* Oracle: rate-pinned BDP window for calibration                       *)
(* ------------------------------------------------------------------ *)

module Oracle = struct
  (* window = rate x min-RTT — the window an omniscient sender would
     pick to fill the pipe without queueing.  Deaf to loss, so a run
     against the oracle isolates what the feedback loop (rather than
     the window size) contributes to a phenomenon. *)
  type t = {
    maxwnd : int;
    rate : float;  (* packets per second *)
    w0 : int;  (* window before the first RTT sample *)
    min_rtt : float array;  (* 1 cell *)
  }

  let id = "oracle"

  let describe =
    "rate-pinned calibration: window = rate x min-RTT, deaf to loss"

  let create ~maxwnd ~params =
    Cc.check_params ~who:id ~allowed:[ "rate"; "w0" ] params;
    (* Default rate: the paper's 50 Kbps bottleneck in 500 B packets. *)
    let rate = Cc.param params "rate" ~default:12.5 in
    let w0 = Cc.int_param ~who:id params "w0" ~default:1 in
    if rate <= 0. then invalid_arg "oracle: rate must be > 0";
    if w0 < 1 then invalid_arg "oracle: w0 must be >= 1";
    { maxwnd; rate; w0; min_rtt = [| infinity |] }

  let window t =
    let min_rtt = t.min_rtt.(0) in
    let w =
      if min_rtt = infinity then t.w0
      else int_of_float (Float.round (t.rate *. min_rtt))
    in
    max 1 (min w t.maxwnd)

  let on_ack _ ~ackno:_ ~newly:_ = false
  let on_dup_ack _ = ()
  let on_loss _ _ ~highest_sent:_ = ()

  let on_rtt_sample t ~rtt =
    if rtt > 0. && rtt < t.min_rtt.(0) then t.min_rtt.(0) <- rtt

  let cwnd t = float_of_int (window t)
  let ssthresh t = float_of_int t.maxwnd
  let in_slow_start _ = false
  let in_recovery _ = false
  let reset t = t.min_rtt.(0) <- infinity
end

(* ------------------------------------------------------------------ *)
(* Fixed window (Figures 8-9)                                           *)
(* ------------------------------------------------------------------ *)

module Fixed = struct
  type t = { maxwnd : int; w : int }

  let id = "fixed"
  let describe = "fixed window w, no congestion control (Figures 8-9)"

  let create ~maxwnd ~params =
    Cc.check_params ~who:id ~allowed:[ "w" ] params;
    let w = Cc.int_param ~who:id params "w" ~default:10 in
    if w < 1 then invalid_arg "fixed: w must be >= 1";
    { maxwnd; w }

  let window t = max 1 (min t.w t.maxwnd)
  let on_ack _ ~ackno:_ ~newly:_ = false
  let on_dup_ack _ = ()
  let on_loss _ _ ~highest_sent:_ = ()
  let on_rtt_sample _ ~rtt:_ = ()
  let cwnd t = float_of_int t.w
  let ssthresh t = float_of_int t.maxwnd
  let in_slow_start t = t.w < t.maxwnd  (* cwnd < ssthresh *)
  let in_recovery _ = false
  let reset _ = ()
end

(* ------------------------------------------------------------------ *)
(* The table                                                            *)
(* ------------------------------------------------------------------ *)

(* The adaptive entries first; oracle and fixed close the table. *)
let adaptive_variants =
  [
    classic_module ~id_:"tahoe"
      ~describe_:"4.3-Tahoe, modified CA increment (the paper's machine)"
      ~modified_ca:true ~fast_recovery:false ~newreno:false;
    classic_module ~id_:"tahoe-unmodified"
      ~describe_:"4.3-Tahoe with the original 1/cwnd CA increment"
      ~modified_ca:false ~fast_recovery:false ~newreno:false;
    classic_module ~id_:"reno"
      ~describe_:"4.3-Reno fast recovery, modified CA increment"
      ~modified_ca:true ~fast_recovery:true ~newreno:false;
    classic_module ~id_:"reno-unmodified"
      ~describe_:"4.3-Reno with the original 1/cwnd CA increment"
      ~modified_ca:false ~fast_recovery:true ~newreno:false;
    classic_module ~id_:"newreno"
      ~describe_:"Reno + partial-ACK recovery (RFC 6582 style)"
      ~modified_ca:true ~fast_recovery:true ~newreno:true;
    (module Aimd : Cc.S);
    (module Compound : Cc.S);
  ]

let variants = adaptive_variants @ [ (module Oracle : Cc.S); (module Fixed) ]
let zoo = List.map (fun (module M : Cc.S) -> (M.id, M.describe)) variants
let names = List.map fst zoo
let adaptive = List.map (fun (module M : Cc.S) -> M.id) adaptive_variants

let make (spec : Cc.spec) ~maxwnd =
  match List.find_opt (fun (module M : Cc.S) -> M.id = spec.name) variants with
  | Some m -> Cc.instantiate m ~maxwnd ~params:spec.params
  | None ->
    invalid_arg
      (Printf.sprintf "Cc_zoo.make: unknown congestion control %S (known: %s)"
         spec.name (String.concat ", " names))
