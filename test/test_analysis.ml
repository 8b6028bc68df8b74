open Analysis

(* --- Sync ------------------------------------------------------------ *)

let sine ?(phase = 0.) ?(period = 10.) ~t0 ~t1 ~dt () =
  let s = Trace.Series.create () in
  let t = ref t0 in
  while !t < t1 do
    Trace.Series.add s ~time:!t
      ~value:(sin (((2. *. Float.pi *. !t) /. period) +. phase));
    t := !t +. dt
  done;
  s

let test_sync_in_phase () =
  let a = sine ~t0:0. ~t1:100. ~dt:0.1 () in
  let b = sine ~t0:0. ~t1:100. ~dt:0.1 () in
  let phase, r = Sync.classify a b ~t0:0. ~t1:100. ~dt:0.5 in
  Alcotest.(check bool) "in phase" true (phase = Sync.In_phase);
  Alcotest.(check bool) "strong correlation" true (r > 0.9)

let test_sync_out_of_phase () =
  let a = sine ~t0:0. ~t1:100. ~dt:0.1 () in
  let b = sine ~phase:Float.pi ~t0:0. ~t1:100. ~dt:0.1 () in
  let phase, r = Sync.classify a b ~t0:0. ~t1:100. ~dt:0.5 in
  Alcotest.(check bool) "out of phase" true (phase = Sync.Out_of_phase);
  Alcotest.(check bool) "strong anticorrelation" true (r < -0.9)

(* Phase classification is a statement about the *shape* of the two
   signals, so it must not depend on their units: scaling both series by
   a positive factor leaves the phase and the correlation unchanged. *)
let prop_sync_scale_invariant =
  QCheck.Test.make ~name:"classify invariant under positive series scaling"
    ~count:100
    QCheck.(
      pair
        (pair
           (list_of_size (Gen.int_range 4 40) (float_bound_inclusive 20.))
           (list_of_size (Gen.int_range 4 40) (float_bound_inclusive 20.)))
        (float_range 0.05 40.))
    (fun ((vs_a, vs_b), scale) ->
      let series vs k =
        let s = Trace.Series.create () in
        List.iteri
          (fun i v -> Trace.Series.add s ~time:(float_of_int i) ~value:(k *. v))
          vs;
        s
      in
      let t1 = float_of_int (max (List.length vs_a) (List.length vs_b)) in
      let classify k =
        Sync.classify (series vs_a k) (series vs_b k) ~t0:0. ~t1 ~dt:0.5
      in
      (* Near-constant signals sit on the correlation's degenerate-variance
         cutoff, where scaling can flip the fallback branch. *)
      let grid vs =
        Trace.Series.resample (series vs 1.) ~t0:0. ~t1 ~dt:0.5
      in
      QCheck.assume
        (Test_stats.variance (grid vs_a) > 1e-6
        && Test_stats.variance (grid vs_b) > 1e-6);
      let phase, r = classify 1. in
      let phase', r' = classify scale in
      phase = phase' && Float.abs (r -. r') < 1e-6)

let test_sync_unclassified () =
  let a = sine ~t0:0. ~t1:100. ~dt:0.1 () in
  let b = Trace.Series.of_list [ (0., 5.) ] in
  let phase, _ = Sync.classify a b ~t0:0. ~t1:100. ~dt:0.5 in
  Alcotest.(check string) "constant is unclassifiable" "unclassified"
    (Sync.phase_to_string phase)

(* --- Clustering ------------------------------------------------------ *)

let dep ?(kind = Net.Packet.Data) conn time =
  { Trace.Dep_log.time; conn; kind; seq = 0; sojourn = 0. }

let test_clustering_complete () =
  let records = List.init 10 (fun i -> dep 1 (float_of_int i)) in
  Alcotest.(check (option (float 1e-9))) "single conn" (Some 1.)
    (Clustering.coefficient records)

let test_clustering_interleaved () =
  let records = List.init 10 (fun i -> dep (1 + (i mod 2)) (float_of_int i)) in
  Alcotest.(check (option (float 1e-9))) "alternating" (Some 0.)
    (Clustering.coefficient records)

let test_clustering_edge () =
  Alcotest.(check (option (float 0.))) "empty" None (Clustering.coefficient []);
  Alcotest.(check (option (float 0.))) "singleton" None
    (Clustering.coefficient [ dep 1 0. ])

let test_run_lengths () =
  let records =
    [ dep 1 0.; dep 1 1.; dep 2 2.; dep 1 3.; dep 1 4.; dep 1 5. ]
  in
  Alcotest.(check (list int)) "runs" [ 2; 1; 3 ] (Clustering.run_lengths records);
  Alcotest.(check (option (float 1e-9))) "mean run" (Some 2.)
    (Clustering.mean_run_length records)

let test_data_only () =
  let records = [ dep 1 0.; dep ~kind:Net.Packet.Ack 2 1.; dep 1 2. ] in
  Alcotest.(check int) "acks filtered" 2
    (List.length (Clustering.data_only records))

let test_interleaved_baseline () =
  Alcotest.(check (float 1e-9)) "1/n" 0.25 (Clustering.interleaved_baseline ~n:4);
  Alcotest.(check (float 1e-9)) "n=1" 1. (Clustering.interleaved_baseline ~n:1)

let prop_runs_sum =
  QCheck.Test.make ~name:"run lengths partition the record list" ~count:200
    QCheck.(list (int_range 1 3))
    (fun conns ->
      let records = List.mapi (fun i c -> dep c (float_of_int i)) conns in
      List.fold_left ( + ) 0 (Clustering.run_lengths records)
      = List.length records)

(* --- Ackcomp --------------------------------------------------------- *)

let test_ack_spacing_compressed () =
  (* ACK cluster leaving at 8 ms spacing vs an 80 ms data tx time. *)
  let records =
    List.init 11 (fun i -> dep ~kind:Net.Packet.Ack 1 (0.008 *. float_of_int i))
  in
  match Ackcomp.ack_spacing records ~data_tx:0.08 with
  | Some sp ->
    Alcotest.(check (float 1e-9)) "median gap" 0.008 sp.Ackcomp.median_gap;
    Alcotest.(check (float 1e-9)) "ratio 0.1" 0.1 sp.Ackcomp.ratio;
    Alcotest.(check (float 1e-9)) "all compressed" 1. sp.Ackcomp.compressed_fraction;
    Alcotest.(check int) "samples" 10 sp.Ackcomp.samples
  | None -> Alcotest.fail "expected spacing"

let test_ack_spacing_clocked () =
  (* Intact ACK clock: gaps equal the data tx time. *)
  let records =
    List.init 11 (fun i -> dep ~kind:Net.Packet.Ack 1 (0.08 *. float_of_int i))
  in
  match Ackcomp.ack_spacing records ~data_tx:0.08 with
  | Some sp ->
    Alcotest.(check (float 1e-9)) "ratio 1" 1. sp.Ackcomp.ratio;
    Alcotest.(check (float 1e-9)) "none compressed" 0. sp.Ackcomp.compressed_fraction
  | None -> Alcotest.fail "expected spacing"

let test_ack_spacing_requires_pairs () =
  (* Data between ACKs, or different connections: no same-conn pair. *)
  let records = [ dep ~kind:Net.Packet.Ack 1 0.; dep 1 0.01;
                  dep ~kind:Net.Packet.Ack 2 0.02 ] in
  Alcotest.(check bool) "no pairs" true
    (Ackcomp.ack_spacing records ~data_tx:0.08 = None)

let test_fluctuation_rate () =
  (* A square wave jumping by 10 every 0.5 s: every swing is an event. *)
  let s = Trace.Series.create () in
  for i = 0 to 99 do
    Trace.Series.add s ~time:(0.5 *. float_of_int i)
      ~value:(if i mod 2 = 0 then 0. else 10.)
  done;
  let rate = Ackcomp.fluctuation_rate s ~t0:0. ~t1:50. ~window:0.6 ~threshold:5. in
  Alcotest.(check bool) "high rate" true (rate > 1.5);
  (* A flat series scores zero. *)
  let flat = Trace.Series.of_list [ (0., 3.); (50., 3.) ] in
  Alcotest.(check (float 1e-9)) "flat scores zero" 0.
    (Ackcomp.fluctuation_rate flat ~t0:0. ~t1:50. ~window:0.6 ~threshold:5.)

let test_fluctuation_slow_ramp () =
  (* A slow ramp never moves 5 packets within the window: no events. *)
  let s = Trace.Series.create () in
  for i = 0 to 499 do
    Trace.Series.add s ~time:(0.1 *. float_of_int i) ~value:(0.02 *. float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "ramp scores zero" 0.
    (Ackcomp.fluctuation_rate s ~t0:0. ~t1:50. ~window:0.5 ~threshold:5.)

let test_edge_slopes () =
  (* A sawtooth: rises 10 packets in 0.1 s (slope 100), falls 10 in 0.05 s
     (slope -200), repeated. *)
  let s = Trace.Series.create () in
  for cycle = 0 to 19 do
    let base = 0.2 *. float_of_int cycle in
    for k = 0 to 9 do
      Trace.Series.add s
        ~time:(base +. (0.01 *. float_of_int k))
        ~value:(float_of_int (k + 1))
    done;
    for k = 0 to 9 do
      Trace.Series.add s
        ~time:(base +. 0.1 +. (0.005 *. float_of_int k))
        ~value:(float_of_int (9 - k))
    done;
    (* hold at the floor so the next rise starts 10 ms before its first
       sample, not at the end of this fall *)
    Trace.Series.add s ~time:(base +. 0.19) ~value:0.
  done;
  let slopes = Ackcomp.edge_slopes s ~t0:0. ~t1:4. ~min_rise:5. in
  (match slopes.Ackcomp.rising with
   | Some v -> Alcotest.(check bool) "rising ~100" true (v > 90. && v < 115.)
   | None -> Alcotest.fail "no rising edges");
  (match slopes.Ackcomp.falling with
   | Some v -> Alcotest.(check bool) "falling ~-200" true (v < -180. && v > -230.)
   | None -> Alcotest.fail "no falling edges");
  Alcotest.(check bool) "many edges" true
    (slopes.Ackcomp.rising_count > 10 && slopes.Ackcomp.falling_count > 10)

let test_edge_slopes_flat () =
  let s = Trace.Series.of_list [ (0., 3.); (10., 3.) ] in
  let slopes = Ackcomp.edge_slopes s ~t0:0. ~t1:10. ~min_rise:2. in
  Alcotest.(check bool) "flat has no edges" true
    (slopes.Ackcomp.rising = None && slopes.Ackcomp.falling = None)

let test_sync_lag () =
  (* b trails a by a quarter period (2.5 s of a 10 s sine). *)
  let a = sine ~t0:0. ~t1:200. ~dt:0.1 () in
  let b = sine ~phase:(-.(Float.pi /. 2.)) ~t0:0. ~t1:200. ~dt:0.1 () in
  match Sync.lag a b ~t0:0. ~t1:200. ~dt:0.25 ~max_lag:8. with
  | Some (lag, r) ->
    Alcotest.(check bool) "lag ~2.5s" true (Float.abs (Float.abs lag -. 2.5) < 0.5);
    Alcotest.(check bool) "strong correlation at best lag" true (r > 0.9)
  | None -> Alcotest.fail "expected a lag"

let test_sync_lag_zero_for_in_phase () =
  let a = sine ~t0:0. ~t1:200. ~dt:0.1 () in
  let b = sine ~t0:0. ~t1:200. ~dt:0.1 () in
  match Sync.lag a b ~t0:0. ~t1:200. ~dt:0.25 ~max_lag:8. with
  | Some (lag, _) -> Alcotest.(check (float 0.3)) "no shift" 0. lag
  | None -> Alcotest.fail "expected a lag"

let test_sync_lag_window_too_short () =
  let a = sine ~t0:0. ~t1:5. ~dt:0.1 () in
  Alcotest.(check bool) "too short" true
    (Sync.lag a a ~t0:0. ~t1:5. ~dt:0.5 ~max_lag:10. = None)

(* --- Chronology -------------------------------------------------------- *)

let square_pair () =
  (* Q1 and Q2 as opposed square waves: Q1 rises fast while Q2 falls,
     plateaus in between, then the roles swap.  Period 2 s. *)
  let q1 = Trace.Series.create () and q2 = Trace.Series.create () in
  for cycle = 0 to 19 do
    let base = 2. *. float_of_int cycle in
    (* plateau: Q1 low, Q2 high *)
    Trace.Series.add q1 ~time:base ~value:5.;
    Trace.Series.add q2 ~time:base ~value:25.;
    (* swing over 0.2 s *)
    for k = 0 to 9 do
      let t = base +. 0.8 +. (0.02 *. float_of_int k) in
      Trace.Series.add q1 ~time:t ~value:(5. +. (2. *. float_of_int (k + 1)));
      Trace.Series.add q2 ~time:t ~value:(25. -. (2. *. float_of_int (k + 1)))
    done;
    (* plateau: Q1 high, Q2 low *)
    Trace.Series.add q1 ~time:(base +. 1.) ~value:25.;
    Trace.Series.add q2 ~time:(base +. 1.) ~value:5.;
    (* swing back *)
    for k = 0 to 9 do
      let t = base +. 1.8 +. (0.02 *. float_of_int k) in
      Trace.Series.add q1 ~time:t ~value:(25. -. (2. *. float_of_int (k + 1)));
      Trace.Series.add q2 ~time:t ~value:(5. +. (2. *. float_of_int (k + 1)))
    done
  done;
  (q1, q2)

let test_chronology_phases () =
  let q1, q2 = square_pair () in
  let phases = Chronology.phases q1 q2 ~t0:0. ~t1:10. in
  Alcotest.(check bool) "several phases" true (List.length phases >= 8);
  (* the moving phases strictly alternate between (rise,fall) and
     (fall,rise) *)
  let moving =
    List.filter
      (fun p -> p.Chronology.q1 <> Chronology.Steady)
      phases
  in
  Alcotest.(check bool) "moving phases found" true (List.length moving >= 4);
  Alcotest.(check (option (float 1e-9))) "perfect opposition" (Some 1.)
    (Chronology.opposition phases)

let test_chronology_steady_only () =
  let flat = Trace.Series.of_list [ (0., 4.); (10., 4.) ] in
  let phases = Chronology.phases flat flat ~t0:0. ~t1:10. in
  Alcotest.(check bool) "one steady phase" true
    (List.for_all (fun p -> p.Chronology.q1 = Chronology.Steady) phases);
  Alcotest.(check (option (float 0.))) "no opposition measurable" None
    (Chronology.opposition phases)

let test_chronology_same_direction () =
  (* both queues rising together: zero opposition *)
  let mk () =
    let s = Trace.Series.create () in
    for k = 0 to 99 do
      Trace.Series.add s ~time:(0.02 *. float_of_int k) ~value:(float_of_int k)
    done;
    s
  in
  let phases = Chronology.phases (mk ()) (mk ()) ~t0:0. ~t1:2. in
  Alcotest.(check (option (float 1e-9))) "no opposition" (Some 0.)
    (Chronology.opposition phases)

let test_chronology_pp () =
  let q1, q2 = square_pair () in
  let phases = Chronology.phases q1 q2 ~t0:0. ~t1:4. in
  let text = Format.asprintf "%a" Chronology.pp phases in
  Alcotest.(check bool) "mentions rising" true
    (String.length text > 0
    && (let rec find i =
          i + 6 <= String.length text
          && (String.sub text i 6 = "rising" || find (i + 1))
        in
        find 0))

(* --- Conjecture ------------------------------------------------------ *)

let test_predict () =
  Alcotest.(check string) "clear out-of-phase" "out-of-phase, one line full"
    (Conjecture.prediction_to_string (Conjecture.predict ~w1:30 ~w2:5 ~pipe:5.));
  Alcotest.(check string) "clear in-phase" "in-phase, neither line full"
    (Conjecture.prediction_to_string (Conjecture.predict ~w1:30 ~w2:25 ~pipe:12.5));
  Alcotest.(check string) "boundary" "boundary (w1 = w2 + 2P)"
    (Conjecture.prediction_to_string (Conjecture.predict ~w1:30 ~w2:20 ~pipe:5.));
  (* argument order must not matter *)
  Alcotest.(check bool) "symmetric" true
    (Conjecture.predict ~w1:5 ~w2:30 ~pipe:5.
    = Conjecture.predict ~w1:30 ~w2:5 ~pipe:5.)

let test_observe () =
  Alcotest.(check bool) "one full" true
    (Conjecture.observe ~util1:1.0 ~util2:0.7 = Conjecture.Out_of_phase_one_full);
  Alcotest.(check bool) "neither full" true
    (Conjecture.observe ~util1:0.8 ~util2:0.7 = Conjecture.In_phase_neither_full);
  Alcotest.(check bool) "both full" true
    (Conjecture.observe ~util1:1.0 ~util2:0.995 = Conjecture.Boundary);
  (* A line is full at exactly 0.985, and not one ulp below it. *)
  Alcotest.(check bool) "0.985 is full" true
    (Conjecture.observe ~util1:0.985 ~util2:0.7
    = Conjecture.Out_of_phase_one_full);
  Alcotest.(check bool) "just below 0.985 is not full" true
    (Conjecture.observe ~util1:(Float.pred 0.985) ~util2:0.7
    = Conjecture.In_phase_neither_full)

let test_verdict () =
  Alcotest.(check bool) "match" true
    (Conjecture.verdict Conjecture.Out_of_phase_one_full
       ~observed:Conjecture.Out_of_phase_one_full);
  Alcotest.(check bool) "mismatch" false
    (Conjecture.verdict Conjecture.Out_of_phase_one_full
       ~observed:Conjecture.In_phase_neither_full);
  Alcotest.(check bool) "boundary accepts anything" true
    (Conjecture.verdict Conjecture.Boundary
       ~observed:Conjecture.In_phase_neither_full)

let suite =
  ( "analysis",
    [
      Alcotest.test_case "sync in-phase" `Quick test_sync_in_phase;
      Alcotest.test_case "sync out-of-phase" `Quick test_sync_out_of_phase;
      Alcotest.test_case "sync unclassified" `Quick test_sync_unclassified;
      QCheck_alcotest.to_alcotest prop_sync_scale_invariant;
      Alcotest.test_case "clustering complete" `Quick test_clustering_complete;
      Alcotest.test_case "clustering interleaved" `Quick
        test_clustering_interleaved;
      Alcotest.test_case "clustering edge cases" `Quick test_clustering_edge;
      Alcotest.test_case "run lengths" `Quick test_run_lengths;
      Alcotest.test_case "data only" `Quick test_data_only;
      Alcotest.test_case "interleaved baseline" `Quick test_interleaved_baseline;
      QCheck_alcotest.to_alcotest prop_runs_sum;
      Alcotest.test_case "ack spacing compressed" `Quick
        test_ack_spacing_compressed;
      Alcotest.test_case "ack spacing clocked" `Quick test_ack_spacing_clocked;
      Alcotest.test_case "ack spacing needs pairs" `Quick
        test_ack_spacing_requires_pairs;
      Alcotest.test_case "fluctuation rate" `Quick test_fluctuation_rate;
      Alcotest.test_case "fluctuation slow ramp" `Quick
        test_fluctuation_slow_ramp;
      Alcotest.test_case "edge slopes" `Quick test_edge_slopes;
      Alcotest.test_case "edge slopes flat" `Quick test_edge_slopes_flat;
      Alcotest.test_case "sync lag" `Quick test_sync_lag;
      Alcotest.test_case "sync lag in-phase" `Quick test_sync_lag_zero_for_in_phase;
      Alcotest.test_case "sync lag short window" `Quick
        test_sync_lag_window_too_short;
      Alcotest.test_case "chronology phases" `Quick test_chronology_phases;
      Alcotest.test_case "chronology steady" `Quick test_chronology_steady_only;
      Alcotest.test_case "chronology same direction" `Quick
        test_chronology_same_direction;
      Alcotest.test_case "chronology pp" `Quick test_chronology_pp;
      Alcotest.test_case "conjecture predict" `Quick test_predict;
      Alcotest.test_case "conjecture observe" `Quick test_observe;
      Alcotest.test_case "conjecture verdict" `Quick test_verdict;
    ] )
