(* Golden regression tests.

   The simulator is deterministic, so canonical scenarios must reproduce
   these exact numbers on every machine.  If a deliberate model change
   alters them, update the constants — the point is that it cannot happen
   silently. *)

let run scenario = Core.Runner.run scenario

let test_oneway_golden () =
  let r =
    run
      (Core.Scenario.make ~name:"golden-oneway" ~tau:1.0 ~buffer:(Some 20)
         ~conns:[ Core.Scenario.conn Core.Scenario.Forward ]
         ~duration:120. ~warmup:40. ())
  in
  let _, conn = r.conns.(0) in
  (* pin the exact trajectory *)
  Alcotest.(check int) "packets delivered end-to-end" 770
    (Tcp.Connection.delivered conn);
  Alcotest.(check int) "total drops" 46 (Trace.Drop_log.total r.drops);
  Alcotest.(check int) "window-restricted delivery" 656 r.delivered.(0)

let test_twoway_golden () =
  let r =
    run
      (Core.Scenario.make ~name:"golden-twoway" ~tau:0.01 ~buffer:(Some 20)
         ~conns:
           (Core.Scenario.stagger ~step:1.0
              [
                Core.Scenario.conn Core.Scenario.Forward;
                Core.Scenario.conn Core.Scenario.Reverse;
              ])
         ~duration:120. ~warmup:40. ())
  in
  let total = r.delivered.(0) + r.delivered.(1) in
  Alcotest.(check int) "aggregate delivery" 1231 total;
  Alcotest.(check int) "total drops" 66 (Trace.Drop_log.total r.drops)

let test_fixed_golden_paper () =
  let r = run (Core.Experiments.scenario_fixed ~tau:0.01 ~w1:30 ~w2:25 ()) in
  Alcotest.(check int) "conn1 delivered" 2880 r.delivered.(0);
  Alcotest.(check int) "conn2 delivered" 2413 r.delivered.(1);
  Alcotest.(check int) "no drops" 0 (Trace.Drop_log.total r.drops)

let suite =
  ( "regression (golden values)",
    [
      Alcotest.test_case "one-way trajectory" `Quick test_oneway_golden;
      Alcotest.test_case "two-way trajectory" `Quick test_twoway_golden;
      Alcotest.test_case "fixed-window trajectory, paper horizon" `Quick
        test_fixed_golden_paper;
    ] )
