let name = "tahoe"

(* Float tolerance: cwnd arithmetic accumulates 1/wnd steps and the
   congestion module snaps near-integers within 1e-9. *)
let eps = 1e-6

(* The last sample sits in a flat float array, so storing it boxes
   nothing. *)
type t = {
  report : Report.t;
  subject : string;
  maxwnd : int;
  last : float array;  (* last observed cwnd, ssthresh, once [sampled] *)
  mutable sampled : bool;
  mutable pending_loss : bool;  (* a loss fired; next sample is the reset *)
}

let create report ~subject ~maxwnd =
  { report; subject; maxwnd; last = [| 0.; 0. |]; sampled = false;
    pending_loss = false }

let add t ~time fmt =
  Printf.ksprintf
    (fun detail ->
      Report.add t.report ~time ~checker:name ~subject:t.subject ~detail)
    fmt

let[@inline] observe_loss t ~time:_ (_reason : Tcp.Cc.reason) =
  (* Tahoe reacts identically to timeout and fast retransmit: the next
     window sample must be the slow-start reset. *)
  t.pending_loss <- true

let check_loss_transition t ~time ~cwnd ~ssthresh =
  if Float.abs (cwnd -. 1.) > eps then
    add t ~time "cwnd after loss is %g, must reset to 1" cwnd;
  if t.sampled then begin
    let prev_cwnd = t.last.(0) in
    let expected =
      Float.max (Float.min (prev_cwnd /. 2.) (float_of_int t.maxwnd)) 2.
    in
    if Float.abs (ssthresh -. expected) > eps then
      add t ~time "ssthresh after loss is %g, must be flight/2 = %g (cwnd was %g)"
        ssthresh expected prev_cwnd
  end

(* Inlined, so a hook's time is boxed only to report a violation; the
   post-loss check runs once per loss and is a call. *)
let[@inline] check_ack_growth t ~time ~cwnd ~ssthresh =
  let prev_cwnd = t.last.(0) and prev_ssthresh = t.last.(1) in
  if Float.abs (ssthresh -. prev_ssthresh) > eps then
    add t ~time "ssthresh changed without a loss: %g -> %g" prev_ssthresh
      ssthresh;
  let delta = cwnd -. prev_cwnd in
  if delta < -.eps then
    add t ~time "cwnd shrank on ACK: %g -> %g" prev_cwnd cwnd
  else if prev_cwnd < prev_ssthresh then begin
    (* Slow start: at most one packet per ACK. *)
    if delta > 1. +. eps then
      add t ~time "slow-start growth of %g per ACK (cwnd %g), limit is 1" delta
        prev_cwnd
  end
  else begin
    (* Congestion avoidance: at most 1/floor(cwnd) per ACK (the modified
       algorithm divides by the integer window, the original by cwnd
       itself; 1/floor bounds both). *)
    let floor_wnd =
      Float.max 1. (Float.of_int (int_of_float (Float.min prev_cwnd (float_of_int t.maxwnd))))
    in
    if delta > (1. /. floor_wnd) +. eps then
      add t ~time
        "congestion-avoidance growth of %g per ACK (cwnd %g), limit is 1/%g"
        delta prev_cwnd floor_wnd
  end

let[@inline] observe_cwnd t ~time ~cwnd ~ssthresh =
  if cwnd < 1. -. eps then add t ~time "cwnd %g below 1" cwnd;
  if cwnd > float_of_int t.maxwnd +. eps then
    add t ~time "cwnd %g above the advertised window %d" cwnd t.maxwnd;
  if t.pending_loss then begin
    check_loss_transition t ~time ~cwnd ~ssthresh;
    t.pending_loss <- false
  end
  else if t.sampled then check_ack_growth t ~time ~cwnd ~ssthresh;
  t.last.(0) <- cwnd;
  t.last.(1) <- ssthresh;
  t.sampled <- true
