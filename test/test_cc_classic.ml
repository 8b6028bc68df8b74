(* Unit pins on the classic Cc entries: the paper's 4.3-Tahoe window
   arithmetic (§2.1) and the fixed RFC-793 window. *)

open Tcp

let make ?(maxwnd = 1000) ?(params = []) name =
  Cc_zoo.make (Cc.spec ~params name) ~maxwnd

(* The classic entries read [ackno] only inside a NewReno recovery. *)
let ack c = ignore (Cc.on_ack c ~ackno:0 ~newly:1 : bool)
let timeout c = Cc.on_loss c Cc.Timeout ~highest_sent:0

let test_initial_state () =
  let c = make "tahoe" in
  Alcotest.(check (float 0.)) "cwnd starts at 1" 1. (Cc.cwnd c);
  Alcotest.(check (float 0.)) "ssthresh starts at maxwnd" 1000. (Cc.ssthresh c);
  Alcotest.(check int) "wnd" 1 (Cc.window c);
  Alcotest.(check bool) "slow start" true (Cc.in_slow_start c)

let test_slow_start_exponential () =
  (* One ACK per outstanding packet: cwnd doubles per epoch. *)
  let c = make "tahoe" in
  let acks_per_epoch = ref 1 in
  for _epoch = 1 to 5 do
    for _ = 1 to !acks_per_epoch do ack c done;
    acks_per_epoch := Cc.window c
  done;
  Alcotest.(check int) "cwnd after 5 doubling epochs" 32 (Cc.window c)

let test_congestion_avoidance_modified () =
  (* Above ssthresh, floor(cwnd) grows by exactly one per window's worth
     of ACKs (the paper's modified increment). *)
  let c = make "tahoe" in
  ack c;  (* 2 *)
  timeout c; (* ssthresh = 2, cwnd = 1 *)
  ack c;  (* slow start: 2 = ssthresh *)
  Alcotest.(check int) "at threshold" 2 (Cc.window c);
  (* now in CA: 2 ACKs (one window) must lift wnd to exactly 3 *)
  ack c;
  ack c;
  Alcotest.(check int) "one window of acks -> +1" 3 (Cc.window c);
  (* 3 more ACKs -> 4 *)
  ack c;
  ack c;
  ack c;
  Alcotest.(check int) "next window -> +1 again" 4 (Cc.window c)

let test_congestion_avoidance_unmodified () =
  (* The original increment 1/cwnd shows the anomaly: after one window of
     ACKs, floor(cwnd) may not have increased. *)
  let c = make "tahoe-unmodified" in
  ack c;
  timeout c;
  ack c;
  (* in CA at cwnd = 2.0; two ACKs of 1/cwnd each give < 3.0 *)
  ack c;
  ack c;
  Alcotest.(check bool) "still below 3" true (Cc.cwnd c < 3.);
  Alcotest.(check int) "floor still 2 (the anomaly)" 2 (Cc.window c)

let test_loss_halves () =
  let c = make "tahoe" in
  for _ = 1 to 39 do ack c done;
  (* cwnd = 40, slow start *)
  Alcotest.(check (float 1e-9)) "grown" 40. (Cc.cwnd c);
  timeout c;
  Alcotest.(check (float 1e-9)) "ssthresh = cwnd/2" 20. (Cc.ssthresh c);
  Alcotest.(check (float 1e-9)) "cwnd reset" 1. (Cc.cwnd c)

let test_double_loss_floor () =
  (* The paper's footnote 9: a second loss with cwnd still 1 drives
     ssthresh to its minimum of 2. *)
  let c = make "tahoe" in
  for _ = 1 to 30 do ack c done;
  timeout c;
  timeout c;
  Alcotest.(check (float 0.)) "ssthresh floored at 2" 2. (Cc.ssthresh c);
  Alcotest.(check (float 0.)) "cwnd 1" 1. (Cc.cwnd c)

let test_maxwnd_cap () =
  let c = make ~maxwnd:8 "tahoe" in
  for _ = 1 to 50 do ack c done;
  Alcotest.(check bool) "cwnd capped" true (Cc.cwnd c <= 8.);
  Alcotest.(check int) "wnd capped" 8 (Cc.window c)

let test_fixed_window () =
  let c = make ~params:[ ("w", 30.) ] "fixed" in
  Alcotest.(check int) "fixed wnd" 30 (Cc.window c);
  ack c;
  timeout c;
  Alcotest.(check int) "immutable" 30 (Cc.window c)

let test_wnd_boundaries () =
  (* Pin the usable-window clamp at its edges. *)
  (* A fixed window larger than the advertised maximum must not overrun
     the receiver (this was once a real bug: Fixed ignored maxwnd). *)
  let c = make ~maxwnd:10 ~params:[ ("w", 50.) ] "fixed" in
  Alcotest.(check int) "fixed window clamped to maxwnd" 10 (Cc.window c);
  let c = make ~maxwnd:2 ~params:[ ("w", 1.) ] "fixed" in
  Alcotest.(check int) "fixed window below maxwnd untouched" 1 (Cc.window c);
  (* cwnd exactly at maxwnd: wnd is maxwnd itself, not maxwnd - 1. *)
  let c = make ~maxwnd:8 "tahoe" in
  for _ = 1 to 20 do ack c done;
  Alcotest.(check (float 0.)) "cwnd capped exactly" 8. (Cc.cwnd c);
  Alcotest.(check int) "wnd = maxwnd at the cap" 8 (Cc.window c);
  (* cwnd at its floor of 1: wnd never reports 0. *)
  let c = make "tahoe" in
  timeout c;
  Alcotest.(check (float 0.)) "cwnd floor" 1. (Cc.cwnd c);
  Alcotest.(check int) "wnd floor is 1" 1 (Cc.window c);
  (* fractional cwnd truncates: one CA step past an integer stays put *)
  let c = make "tahoe" in
  ack c;
  timeout c;
  ack c;  (* cwnd = 2 = ssthresh, CA from here *)
  ack c;  (* cwnd = 2.5 *)
  Alcotest.(check int) "floor of 2.5 is 2" 2 (Cc.window c)

let test_reset () =
  let c = make "tahoe" in
  for _ = 1 to 10 do ack c done;
  timeout c;
  Cc.reset c;
  Alcotest.(check (float 0.)) "cwnd back to 1" 1. (Cc.cwnd c);
  Alcotest.(check (float 0.)) "ssthresh back to maxwnd" 1000. (Cc.ssthresh c)

let test_bad_args () =
  Alcotest.check_raises "maxwnd < 2"
    (Invalid_argument "Cc.instantiate: maxwnd must be >= 2") (fun () ->
      ignore (make ~maxwnd:1 ~params:[ ("w", 1.) ] "fixed" : Cc.t));
  Alcotest.check_raises "fixed window < 1"
    (Invalid_argument "fixed: w must be >= 1") (fun () ->
      ignore (make ~maxwnd:10 ~params:[ ("w", 0.) ] "fixed" : Cc.t))

let test_tahoe_has_no_recovery_state () =
  let c = make ~maxwnd:100 "tahoe" in
  for _ = 1 to 9 do ack c done;
  Cc.on_loss c Cc.Fast_retransmit ~highest_sent:0;
  Alcotest.(check (float 1e-9)) "tahoe collapses on fast rexmt" 1. (Cc.cwnd c);
  Alcotest.(check bool) "never in recovery" false (Cc.in_recovery c);
  Cc.on_dup_ack c;
  Alcotest.(check (float 1e-9)) "dup acks don't inflate tahoe" 1. (Cc.cwnd c)

let prop_acceleration =
  (* Paper 2.1: with the modified algorithm, in congestion avoidance
     floor(cwnd) increases by exactly 1 per epoch, for any starting
     ssthresh. *)
  QCheck.Test.make ~name:"CA acceleration is 1 per epoch" ~count:100
    QCheck.(int_range 2 40)
    (fun start ->
      let c = make "tahoe" in
      (* climb to `start` in slow start, then force CA via a loss at 2*start *)
      for _ = 1 to (2 * start) - 1 do ack c done;
      timeout c;
      (* slow start to ssthresh = start *)
      while Cc.in_slow_start c do ack c done;
      let w0 = Cc.window c in
      for _ = 1 to w0 do ack c done;
      Cc.window c = w0 + 1)

let prop_loss_never_below_two =
  QCheck.Test.make ~name:"ssthresh never below 2" ~count:100
    QCheck.(list bool)
    (fun choices ->
      let c = make "tahoe" in
      List.iter (fun acked -> if acked then ack c else timeout c) choices;
      Cc.ssthresh c >= 2.)

let suite =
  ( "cc classic",
    [
      Alcotest.test_case "initial state" `Quick test_initial_state;
      Alcotest.test_case "slow start doubling" `Quick test_slow_start_exponential;
      Alcotest.test_case "CA modified increment" `Quick
        test_congestion_avoidance_modified;
      Alcotest.test_case "CA original anomaly" `Quick
        test_congestion_avoidance_unmodified;
      Alcotest.test_case "loss halves window" `Quick test_loss_halves;
      Alcotest.test_case "double loss floors ssthresh" `Quick
        test_double_loss_floor;
      Alcotest.test_case "maxwnd cap" `Quick test_maxwnd_cap;
      Alcotest.test_case "fixed window" `Quick test_fixed_window;
      Alcotest.test_case "wnd boundaries" `Quick test_wnd_boundaries;
      Alcotest.test_case "reset" `Quick test_reset;
      Alcotest.test_case "bad args" `Quick test_bad_args;
      Alcotest.test_case "tahoe has no recovery" `Quick
        test_tahoe_has_no_recovery_state;
      QCheck_alcotest.to_alcotest prop_acceleration;
      QCheck_alcotest.to_alcotest prop_loss_never_below_two;
    ] )
