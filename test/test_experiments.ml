(* The reproduction itself: every paper experiment must pass its
   acceptance bands at the paper horizon, the one EXPERIMENTS.md quotes
   (test/golden/experiments.json pins every reported value).  These are
   the slowest tests in the suite (a few seconds of wall clock in
   total). *)

let check_outcome outcome () =
  List.iter
    (fun (c : Core.Report.check) ->
      match c.pass with
      | Some false ->
        Alcotest.failf "%s: %s — paper: %s, measured: %s" outcome.Core.Report.id
          c.metric c.paper c.measured
      | Some true | None -> ())
    outcome.Core.Report.checks

let case name f =
  Alcotest.test_case name `Slow (fun () -> check_outcome (f ()) ())

let test_scenarios_build () =
  let scenarios =
    [
      Core.Experiments.scenario_fig2;
      Core.Experiments.scenario_oneway_small_pipe;
      Core.Experiments.scenario_fig3 ();
      Core.Experiments.scenario_fig45;
      Core.Experiments.scenario_fig67;
      Core.Experiments.scenario_fixed ~tau:0.01 ~w1:30 ~w2:25 ();
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        ("valid horizon: " ^ s.Core.Scenario.name)
        true
        (s.Core.Scenario.duration > s.Core.Scenario.warmup))
    scenarios

let suite =
  ( "experiments (paper reproduction)",
    [
      Alcotest.test_case "scenario constructors" `Quick test_scenarios_build;
      case "FIG2: one-way baseline" Core.Experiments.fig2;
      case "FIG3: ten connections" Core.Experiments.fig3;
      case "FIG4/5: out-of-phase mode" Core.Experiments.fig45;
      case "FIG6/7: in-phase mode" Core.Experiments.fig67;
      case "FIG8: fixed windows, small pipe" Core.Experiments.fig8;
      case "FIG9: fixed windows, large pipe" Core.Experiments.fig9;
      case "TAB-CONJ: zero-ACK criterion" Core.Experiments.conjecture_table;
      case "TAB-UTIL: buffers don't help two-way" Core.Experiments.buffer_table;
      case "TAB-DELACK: delayed ACKs" Core.Experiments.delack_table;
      case "TAB-MHOP: four-switch chain" Core.Experiments.multihop_table;
      case "TAB-ABL: ablations" Core.Experiments.ablation_table;
      case "TAB-RENO: Reno shows the same modes" Core.Experiments.reno_table;
      case "TAB-CCZOO: the whole variant zoo" Core.Experiments.cczoo_table;
      case "TAB-PACE: pacing removes the phenomena" Core.Experiments.pacing_table;
      case "TAB-GW: gateway disciplines" Core.Experiments.gateway_table;
      case "TAB-COLLAPSE: fixed-window TCP collapses"
        Core.Experiments.collapse_table;
      case "TAB-RTT: clustering needs identical RTTs" Core.Experiments.rtt_table;
      case "TAB-FORMULA: the closed-form analysis" Core.Experiments.formula_table;
    ] )
