(* Reno fast recovery, paced sending, and the new analyses
   (Period, Fairness). *)

open Tcp

(* --- Reno window machine --------------------------------------------- *)

(* The fast-recovery arithmetic itself is pinned by
   test_cc_differential's Reno pins; here, a timeout inside a recovery. *)
let test_reno_timeout_still_collapses () =
  let c = Cc_zoo.make (Cc.spec "reno") ~maxwnd:1000 in
  for ackno = 1 to 19 do ignore (Cc.on_ack c ~ackno ~newly:1 : bool) done;
  Cc.on_loss c Cc.Fast_retransmit ~highest_sent:20;
  Alcotest.(check bool) "in recovery" true (Cc.in_recovery c);
  Cc.on_loss c Cc.Timeout ~highest_sent:20;
  Alcotest.(check (float 1e-9)) "cwnd 1 after timeout" 1. (Cc.cwnd c);
  Alcotest.(check bool) "timeout exits recovery" false (Cc.in_recovery c)

(* --- Reno end to end --------------------------------------------------- *)

let test_reno_connection_recovers () =
  let sim = Engine.Sim.create () in
  let d =
    Net.Topology.dumbbell sim (Net.Topology.params ~tau:0.01 ~buffer:(Some 10) ())
  in
  let conn =
    Connection.create d.net
      (Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2
         ~cc:(Cc.spec "reno") ())
  in
  Engine.Sim.run sim ~until:120.;
  Alcotest.(check bool) "losses happened" true (Net.Link.total_drops d.fwd > 0);
  Alcotest.(check bool) "reno delivered plenty" true
    (Connection.delivered conn > 1000);
  let sender = Connection.sender conn in
  let gap = Receiver.rcv_nxt (Connection.receiver conn) - Sender.snd_una sender in
  Alcotest.(check bool) "sender within an ack-flight of the receiver" true
    (gap >= 0 && gap <= 4)

(* --- Paced sender ------------------------------------------------------ *)

let test_paced_spacing () =
  (* A paced sender must never inject two data packets closer than the
     pacing interval, no matter how many ACKs arrive at once. *)
  let sim = Engine.Sim.create () in
  let d =
    Net.Topology.dumbbell sim (Net.Topology.params ~tau:0.01 ~buffer:None ())
  in
  let interval = 0.08 in
  let conn =
    Connection.create d.net
      (Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2
         ~pacing:(Some interval) ())
  in
  let sends = ref [] in
  Sender.on_send (Connection.sender conn) (fun time _ -> sends := time :: !sends);
  Engine.Sim.run sim ~until:60.;
  let times = List.rev !sends in
  let rec check_gaps = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool)
        (Printf.sprintf "gap %.4f >= interval" (b -. a))
        true
        (b -. a >= interval -. 1e-9);
      check_gaps rest
    | [ _ ] | [] -> ()
  in
  check_gaps times;
  Alcotest.(check bool) "still made progress" true
    (Connection.delivered conn > 300)

let test_paced_still_reliable () =
  let sim = Engine.Sim.create () in
  let d =
    Net.Topology.dumbbell sim (Net.Topology.params ~tau:0.01 ~buffer:(Some 5) ())
  in
  let conn =
    Connection.create d.net
      (Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2
         ~pacing:(Some 0.05) ())
  in
  Engine.Sim.run sim ~until:120.;
  let gap =
    Receiver.rcv_nxt (Connection.receiver conn)
    - Sender.snd_una (Connection.sender conn)
  in
  Alcotest.(check bool) "no holes at the receiver" true (gap >= 0 && gap <= 4);
  Alcotest.(check bool) "progress under drops" true
    (Connection.delivered conn > 500)

let test_bad_pacing_rejected () =
  let raised =
    try
      ignore
        (Config.make ~conn:1 ~src_host:0 ~dst_host:1 ~pacing:(Some 0.) ()
          : Config.t);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero interval rejected" true raised

(* --- Period estimation -------------------------------------------------- *)

let test_period_of_square_wave () =
  let s = Trace.Series.create () in
  (* period 10 s: 5 s high, 5 s low *)
  for i = 0 to 199 do
    Trace.Series.add s ~time:(float_of_int i)
      ~value:(if i mod 10 < 5 then 10. else 0.)
  done;
  match
    Analysis.Period.estimate s ~t0:0. ~t1:200. ~dt:0.5 ~max_period:50.
  with
  | Some p -> Alcotest.(check (float 0.6)) "period 10s" 10. p
  | None -> Alcotest.fail "no period found"

let test_period_of_flat_signal () =
  let s = Trace.Series.of_list [ (0., 5.); (100., 5.) ] in
  Alcotest.(check bool) "flat signal has no period" true
    (Analysis.Period.estimate s ~t0:0. ~t1:100. ~dt:0.5 ~max_period:30. = None)

let test_autocorrelation_basics () =
  let xs = Array.init 100 (fun i -> sin (float_of_int i /. 5.)) in
  let acf = Analysis.Period.autocorrelation xs ~max_lag:40 in
  Alcotest.(check (float 1e-9)) "lag 0 is 1" 1. acf.(0);
  Array.iter
    (fun r -> Alcotest.(check bool) "normalized" true (r >= -1.01 && r <= 1.01))
    acf

(* --- Fairness ----------------------------------------------------------- *)

let test_jain_even () =
  Alcotest.(check (float 1e-9)) "even split" 1.
    (Analysis.Fairness.jain [| 5.; 5.; 5.; 5. |])

let test_jain_hog () =
  Alcotest.(check (float 1e-9)) "one hog of n" 0.25
    (Analysis.Fairness.jain [| 12.; 0.; 0.; 0. |])

let test_jain_bounds () =
  let shares = [| 3.; 1.; 7.; 2. |] in
  let j = Analysis.Fairness.jain shares in
  Alcotest.(check bool) "within (1/n, 1)" true (j > 0.25 && j < 1.)

let test_max_min () =
  Alcotest.(check (float 1e-9)) "ratio" 4. (Analysis.Fairness.max_min_ratio [| 2.; 8. |]);
  Alcotest.(check bool) "starved -> infinity" true
    (Analysis.Fairness.max_min_ratio [| 0.; 8. |] = infinity)

let prop_jain_range =
  QCheck.Test.make ~name:"jain index within [1/n, 1]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (float_bound_inclusive 100.))
    (fun xs ->
      let shares = Array.of_list xs in
      let j = Analysis.Fairness.jain shares in
      j >= (1. /. float_of_int (Array.length shares)) -. 1e-9 && j <= 1. +. 1e-9)

let suite =
  ( "variants (reno, pacing, period, fairness)",
    [
      Alcotest.test_case "reno timeout collapse" `Quick
        test_reno_timeout_still_collapses;
      Alcotest.test_case "reno end-to-end" `Quick test_reno_connection_recovers;
      Alcotest.test_case "paced spacing invariant" `Quick test_paced_spacing;
      Alcotest.test_case "paced reliability" `Quick test_paced_still_reliable;
      Alcotest.test_case "bad pacing rejected" `Quick test_bad_pacing_rejected;
      Alcotest.test_case "period of square wave" `Quick test_period_of_square_wave;
      Alcotest.test_case "period of flat signal" `Quick test_period_of_flat_signal;
      Alcotest.test_case "autocorrelation basics" `Quick
        test_autocorrelation_basics;
      Alcotest.test_case "jain even" `Quick test_jain_even;
      Alcotest.test_case "jain hog" `Quick test_jain_hog;
      Alcotest.test_case "jain bounds" `Quick test_jain_bounds;
      Alcotest.test_case "max/min ratio" `Quick test_max_min;
      QCheck_alcotest.to_alcotest prop_jain_range;
    ] )
