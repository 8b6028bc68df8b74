let () =
  Alcotest.run "tahoe-two-way-traffic"
    [
      Test_sim.suite;
      Test_rng.suite;
      Test_units.suite;
      Test_link.suite;
      Test_network.suite;
      Test_routing.suite;
      Test_discipline.suite;
      Test_cc_classic.suite;
      Test_cc_conformance.suite;
      Test_cc_differential.suite;
      Test_rto.suite;
      Test_receiver.suite;
      Test_sender.suite;
      Test_connection.suite;
      Test_series.suite;
      Test_column.suite;
      Test_traces.suite;
      Test_stats.suite;
      Test_epochs.suite;
      Test_analysis.suite;
      Test_core_modules.suite;
      Test_runner.suite;
      Test_multihop.suite;
      Test_variants.suite;
      Test_flows.suite;
      Test_regression.suite;
      Test_validate.suite;
      Test_validate_prop.suite;
      Test_faults.suite;
      Test_coverage.suite;
      Test_sweep.suite;
      Test_robustness.suite;
      Test_obs.suite;
      Test_btrace.suite;
      Test_sketch.suite;
      Test_flowstats.suite;
      Test_args.suite;
      Test_experiments.suite;
      Test_oracles.suite;
      (* Last: spawns domains, and the OCaml 5 runtime forbids
         Unix.fork in a process that has ever had more than one
         domain — every fork-based test must precede this suite. *)
      Test_domain_safety.suite;
    ]
