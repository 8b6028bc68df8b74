let name = "tahoe"

(* Float tolerance: cwnd arithmetic accumulates 1/wnd steps and the
   congestion module snaps near-integers within 1e-9. *)
let eps = 1e-6

type t = {
  report : Report.t;
  subject : string;
  maxwnd : int;
  mutable last : (float * float) option;  (* last observed (cwnd, ssthresh) *)
  mutable pending_loss : bool;  (* a loss fired; next sample is the reset *)
}

let create report ~subject ~maxwnd =
  { report; subject; maxwnd; last = None; pending_loss = false }

let add t ~time fmt =
  Printf.ksprintf
    (fun detail ->
      Report.add t.report ~time ~checker:name ~subject:t.subject ~detail)
    fmt

let observe_loss t ~time:_ (_reason : Tcp.Sender.loss_reason) =
  (* Tahoe reacts identically to timeout and fast retransmit: the next
     window sample must be the slow-start reset. *)
  t.pending_loss <- true

let check_loss_transition t ~time ~cwnd ~ssthresh =
  if Float.abs (cwnd -. 1.) > eps then
    add t ~time "cwnd after loss is %g, must reset to 1" cwnd;
  match t.last with
  | None -> ()
  | Some (prev_cwnd, _) ->
    let expected =
      Float.max (Float.min (prev_cwnd /. 2.) (float_of_int t.maxwnd)) 2.
    in
    if Float.abs (ssthresh -. expected) > eps then
      add t ~time "ssthresh after loss is %g, must be flight/2 = %g (cwnd was %g)"
        ssthresh expected prev_cwnd

let check_ack_growth t ~time ~cwnd ~ssthresh ~prev_cwnd ~prev_ssthresh =
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

let observe_cwnd t ~time ~cwnd ~ssthresh =
  if cwnd < 1. -. eps then add t ~time "cwnd %g below 1" cwnd;
  if cwnd > float_of_int t.maxwnd +. eps then
    add t ~time "cwnd %g above the advertised window %d" cwnd t.maxwnd;
  if t.pending_loss then begin
    check_loss_transition t ~time ~cwnd ~ssthresh;
    t.pending_loss <- false
  end
  else begin
    match t.last with
    | None -> ()
    | Some (prev_cwnd, prev_ssthresh) ->
      check_ack_growth t ~time ~cwnd ~ssthresh ~prev_cwnd ~prev_ssthresh
  end;
  t.last <- Some (cwnd, ssthresh)

let attach report conn =
  let sender = Tcp.Connection.sender conn in
  let config = Tcp.Sender.config sender in
  match config.Tcp.Config.cc.Tcp.Cc.name with
  | "tahoe" | "tahoe-unmodified" ->
    let t =
      create report
        ~subject:(Printf.sprintf "conn %d" config.Tcp.Config.conn)
        ~maxwnd:config.Tcp.Config.maxwnd
    in
    Tcp.Sender.on_loss sender (fun time reason -> observe_loss t ~time reason);
    Tcp.Sender.on_cwnd sender (fun time ~cwnd ~ssthresh ->
        observe_cwnd t ~time ~cwnd ~ssthresh);
    Some t
  | _ ->
    (* Reno's inflation/deflation, fixed windows and the rest of the zoo
       follow different rules; this checker pins the paper's Tahoe state
       machine only. *)
    None
