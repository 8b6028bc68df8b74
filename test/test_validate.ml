(* The invariant checkers themselves are tested two ways: each checker is
   fed a synthetic *violating* event stream through its [observe_*]
   functions (a checker that cannot fail would prove nothing), and the
   full harness is attached to real runs of the examples/ scenario set,
   which must come out clean. *)

let pkt ?(kind = Net.Packet.Data) ?(retransmit = false) ?(conn = 1) ~id ~seq ()
    =
  {
    Net.Packet.id;
    conn;
    kind;
    seq;
    size = 1024;
    src = 0;
    dst = 3;
    retransmit;
  }

let check_total msg expected report =
  Alcotest.(check int) msg expected (Validate.Report.total report)

let first_detail report =
  match Validate.Report.violations report with
  | v :: _ -> v.Validate.Report.detail
  | [] -> Alcotest.fail "expected at least one violation"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_detail msg needle report =
  let detail = first_detail report in
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %S)" msg detail)
    true
    (contains ~needle detail)

(* --- Report ----------------------------------------------------------- *)

let test_report_cap () =
  let r = Validate.Report.create ~max_kept:2 () in
  Alcotest.(check bool) "fresh is clean" true (Validate.Report.is_clean r);
  for i = 1 to 5 do
    Validate.Report.add r ~time:(float_of_int i) ~checker:"c" ~subject:"s"
      ~detail:(Printf.sprintf "v%d" i)
  done;
  check_total "total is exact beyond the cap" 5 r;
  Alcotest.(check int) "kept is capped" 2
    (List.length (Validate.Report.violations r));
  Alcotest.(check string) "kept in arrival order" "v1" (first_detail r);
  Alcotest.(check bool) "dirty" false (Validate.Report.is_clean r);
  Alcotest.(check bool) "summary mentions count" true
    (contains ~needle:"5 violations" (Validate.Report.summary r))

let test_report_rejects_bad_cap () =
  Alcotest.check_raises "max_kept 0"
    (Invalid_argument "Report.create: max_kept must be >= 1") (fun () ->
      ignore (Validate.Report.create ~max_kept:0 () : Validate.Report.t))

(* --- Clock ------------------------------------------------------------ *)

let test_clock_backwards () =
  let r = Validate.Report.create () in
  let c = Validate.Clock.create r in
  Validate.Clock.observe c 1.0;
  Validate.Clock.observe c 2.0;
  check_total "forward clock is clean" 0 r;
  Validate.Clock.observe c 1.5;
  check_total "backwards clock caught" 1 r;
  check_detail "names the regression" "backwards" r;
  Validate.Clock.observe c Float.nan;
  check_total "NaN clock caught" 2 r

let test_clock_attached () =
  (* Through the real Sim hook: a normal run stays clean. *)
  let r = Validate.Report.create () in
  let sim = Engine.Sim.create () in
  let c = Validate.Clock.create r in
  Engine.Sim.on_event sim (fun () ->
      Validate.Clock.observe c (Engine.Sim.now sim));
  for i = 1 to 10 do
    ignore
      (Engine.Sim.schedule sim ~delay:(float_of_int i) (fun () -> ())
        : Engine.Sim.handle)
  done;
  Engine.Sim.run_to_completion sim;
  check_total "real event stream is clean" 0 r

(* --- Conservation ----------------------------------------------------- *)

let test_conservation_clean () =
  let r = Validate.Report.create () in
  let c = Validate.Conservation.create r in
  Validate.Conservation.observe_inject c ~time:0. (pkt ~id:1 ~seq:0 ());
  Validate.Conservation.observe_inject c ~time:0. (pkt ~id:2 ~seq:1 ());
  Validate.Conservation.observe_inject c ~time:0. (pkt ~id:3 ~seq:2 ());
  Validate.Conservation.observe_deliver c ~time:1. (pkt ~id:1 ~seq:0 ());
  Validate.Conservation.observe_drop c ~time:1. (pkt ~id:2 ~seq:1 ());
  Validate.Conservation.finalize c ~time:2. ~links:[];
  check_total "inject/deliver/drop is clean" 0 r;
  Alcotest.(check int) "injected" 3 (Validate.Conservation.injected c);
  Alcotest.(check int) "delivered" 1 (Validate.Conservation.delivered c);
  Alcotest.(check int) "dropped" 1 (Validate.Conservation.dropped c);
  Alcotest.(check int) "in flight" 1 (Validate.Conservation.in_flight c)

let test_conservation_violations () =
  let r = Validate.Report.create () in
  let c = Validate.Conservation.create r in
  let p = pkt ~id:7 ~seq:0 () in
  Validate.Conservation.observe_inject c ~time:0. p;
  Validate.Conservation.observe_inject c ~time:0. p;
  check_total "duplicate injection" 1 r;
  check_detail "names duplication" "injected twice" r;
  Validate.Conservation.observe_deliver c ~time:1. p;
  Validate.Conservation.observe_deliver c ~time:1. p;
  check_total "duplicate delivery" 2 r;
  Validate.Conservation.observe_drop c ~time:2. p;
  check_total "drop after delivery" 3 r;
  Validate.Conservation.observe_drop c ~time:3. (pkt ~id:99 ~seq:4 ());
  check_total "drop of a never-injected packet" 4 r;
  Validate.Conservation.observe_deliver c ~time:4. (pkt ~id:98 ~seq:4 ());
  check_total "delivery of a never-injected packet" 5 r

let test_conservation_drop_then_deliver () =
  (* A packet that was dropped must never reach an endpoint. *)
  let r = Validate.Report.create () in
  let c = Validate.Conservation.create r in
  let p = pkt ~id:11 ~seq:3 () in
  Validate.Conservation.observe_inject c ~time:0. p;
  Validate.Conservation.observe_drop c ~time:1. p;
  Validate.Conservation.observe_deliver c ~time:2. p;
  check_total "delivered after drop" 1 r;
  check_detail "names the drop" "after being dropped" r;
  Validate.Conservation.observe_drop c ~time:3. p;
  check_total "dropped twice" 2 r

(* --- FIFO order / occupancy ------------------------------------------- *)

let test_fifo_reorder () =
  let r = Validate.Report.create () in
  let f = Validate.Fifo_order.create r ~subject:"link test" ~capacity:(Some 5) in
  Validate.Fifo_order.observe_enqueue f ~time:0. (pkt ~id:1 ~seq:0 ()) ~qlen:1;
  Validate.Fifo_order.observe_enqueue f ~time:0. (pkt ~id:2 ~seq:1 ()) ~qlen:2;
  Validate.Fifo_order.observe_enqueue f ~time:0. (pkt ~id:3 ~seq:2 ()) ~qlen:3;
  Validate.Fifo_order.observe_depart f ~time:1. (pkt ~id:2 ~seq:1 ()) ~qlen:2;
  check_total "out-of-order departure caught" 1 r;
  check_detail "names the order" "FIFO order violated" r;
  (* The model resynchronized past the overtaken packet: the rest of the
     stream is judged on its own. *)
  Validate.Fifo_order.observe_depart f ~time:2. (pkt ~id:3 ~seq:2 ()) ~qlen:1;
  Validate.Fifo_order.finalize f ~time:3. ~occupancy:0;
  check_total "one reordering reported once" 1 r

let test_fifo_occupancy_bounds () =
  let r = Validate.Report.create () in
  let f = Validate.Fifo_order.create r ~subject:"link test" ~capacity:(Some 3) in
  Validate.Fifo_order.observe_enqueue f ~time:0. (pkt ~id:1 ~seq:0 ()) ~qlen:7;
  check_total "occupancy above buffer caught" 1 r;
  check_detail "names the bound" "exceeds configured buffer" r;
  Validate.Fifo_order.observe_depart f ~time:1. (pkt ~id:1 ~seq:0 ())
    ~qlen:(-1);
  check_total "negative occupancy caught" 2 r

let test_fifo_drop_rules () =
  let r = Validate.Report.create () in
  let f = Validate.Fifo_order.create r ~subject:"link test" ~capacity:(Some 2) in
  Validate.Fifo_order.observe_enqueue f ~time:0. (pkt ~id:1 ~seq:0 ()) ~qlen:1;
  (* Dropping with a non-full buffer is not drop-tail behaviour. *)
  Validate.Fifo_order.observe_drop f ~time:1. (pkt ~id:9 ~seq:5 ());
  check_total "drop below capacity caught" 1 r;
  check_detail "names the occupancy" "tail-dropped with buffer at 1/2" r;
  (* Discarding an already-queued packet is eviction, not drop-tail. *)
  Validate.Fifo_order.observe_enqueue f ~time:2. (pkt ~id:2 ~seq:1 ()) ~qlen:2;
  Validate.Fifo_order.observe_drop f ~time:3. (pkt ~id:1 ~seq:0 ());
  check_total "eviction caught" 2 r;
  (* An infinite buffer never drops. *)
  let inf = Validate.Fifo_order.create r ~subject:"link inf" ~capacity:None in
  Validate.Fifo_order.observe_drop inf ~time:4. (pkt ~id:3 ~seq:2 ());
  check_total "infinite-buffer drop caught" 3 r

let test_fifo_finalize_mismatch () =
  let r = Validate.Report.create () in
  let f = Validate.Fifo_order.create r ~subject:"link test" ~capacity:(Some 5) in
  Validate.Fifo_order.observe_enqueue f ~time:0. (pkt ~id:1 ~seq:0 ()) ~qlen:1;
  Validate.Fifo_order.finalize f ~time:1. ~occupancy:0;
  check_total "end-of-run occupancy mismatch caught" 1 r

(* --- Fault events ------------------------------------------------------- *)

(* The two checkers that take fault events, on one report, fed as the
   harness feeds a drop-tail link: Fifo_order first. *)
let fault_checkers () =
  let r = Validate.Report.create () in
  let f = Validate.Fifo_order.create r ~subject:"link test" ~capacity:(Some 4) in
  let c = Validate.Conservation.create r in
  let fault time event p =
    Validate.Fifo_order.observe_fault f ~time event p;
    Validate.Conservation.observe_fault c ~time event p
  and drop time p =
    Validate.Fifo_order.observe_drop f ~time p;
    Validate.Conservation.observe_drop c ~time p
  and arrive time ~qlen p =
    Validate.Conservation.observe_inject c ~time p;
    Validate.Fifo_order.observe_enqueue f ~time p ~qlen
  in
  (r, f, c, fault, drop, arrive)

let details r =
  List.map (fun v -> v.Validate.Report.detail) (Validate.Report.violations r)

let test_fault_duplicate_injects () =
  let r, f, c, fault, _, arrive = fault_checkers () in
  let p = pkt ~id:1 ~seq:0 () and copy = pkt ~id:2 ~seq:0 () in
  arrive 0. ~qlen:1 p;
  (* The link announces the copy, then buffers it like any arrival. *)
  fault 0. Net.Link.Fault_duplicate copy;
  Validate.Fifo_order.observe_enqueue f ~time:0. copy ~qlen:2;
  Validate.Fifo_order.observe_depart f ~time:1. p ~qlen:1;
  Validate.Fifo_order.observe_depart f ~time:2. copy ~qlen:0;
  Validate.Conservation.observe_deliver c ~time:3. p;
  Validate.Conservation.observe_deliver c ~time:4. copy;
  Validate.Conservation.finalize c ~time:5. ~links:[];
  Validate.Fifo_order.finalize f ~time:5. ~occupancy:0;
  check_total "the copy's delivery balances" 0 r;
  Alcotest.(check int) "the copy counts as injected" 2
    (Validate.Conservation.injected c);
  Alcotest.(check int) "both delivered" 2 (Validate.Conservation.delivered c);
  Alcotest.(check int) "none in flight" 0 (Validate.Conservation.in_flight c)

let test_fault_drop_sanctions_one () =
  let r, f, c, fault, drop, arrive = fault_checkers () in
  let ps = Array.init 3 (fun i -> pkt ~id:(i + 1) ~seq:i ()) in
  Array.iteri (fun i p -> arrive 0. ~qlen:(i + 1) p) ps;
  (* An outage flushes the queued middle packet: announced, then dropped
     with the buffer below capacity. *)
  fault 1. (Net.Link.Fault_drop "outage") ps.(1);
  drop 1. ps.(1);
  check_total "a flushed packet is no drop-tail violation" 0 r;
  Alcotest.(check int) "the flush counts as a drop" 1
    (Validate.Conservation.dropped c);
  (* The sanction is spent: a second drop of the id is judged. *)
  drop 2. ps.(1);
  Alcotest.(check (list string))
    "a second drop is a violation"
    [ "packet #2 tail-dropped with buffer at 2/4"; "dropped twice" ]
    (details r);
  (* The flushed packet left the shadow queue: the rest depart in order. *)
  Validate.Fifo_order.observe_depart f ~time:3. ps.(0) ~qlen:1;
  Validate.Fifo_order.observe_depart f ~time:4. ps.(2) ~qlen:0;
  Validate.Fifo_order.finalize f ~time:5. ~occupancy:0;
  check_total "the survivors depart in order" 2 r

let test_fault_delay_changes_nothing () =
  let run ~jitter =
    let r, f, c, fault, drop, arrive = fault_checkers () in
    let p1 = pkt ~id:1 ~seq:0 () and p2 = pkt ~id:2 ~seq:1 () in
    arrive 0. ~qlen:1 p1;
    arrive 0. ~qlen:2 p2;
    (* A drop below capacity, so that there is something to report. *)
    drop 0.5 (pkt ~id:9 ~seq:5 ());
    (* Jitter is announced after departure, before propagation.  One
       more for a packet still queued: a checker that took a delay for a
       drop would lose it from its shadow queue. *)
    Validate.Fifo_order.observe_depart f ~time:1. p1 ~qlen:1;
    if jitter then begin
      fault 1. (Net.Link.Fault_delay 0.05) p1;
      fault 1. (Net.Link.Fault_delay 0.05) p2
    end;
    Validate.Fifo_order.observe_depart f ~time:2. p2 ~qlen:0;
    Validate.Conservation.observe_deliver c ~time:3. p1;
    Validate.Conservation.observe_deliver c ~time:4. p2;
    (* A delay sanctions no drop: a later drop of a delayed id is judged. *)
    drop 4.5 p1;
    Validate.Conservation.finalize c ~time:5. ~links:[];
    Validate.Fifo_order.finalize f ~time:5. ~occupancy:0;
    Printf.sprintf "%s\ninjected %d delivered %d dropped %d"
      (Validate.Report.to_string r)
      (Validate.Conservation.injected c)
      (Validate.Conservation.delivered c)
      (Validate.Conservation.dropped c)
  in
  let plain = run ~jitter:false in
  Alcotest.(check bool) "the plain run reports the drop" true
    (contains ~needle:"tail-dropped" plain);
  Alcotest.(check string) "jitter changes no report and no count" plain
    (run ~jitter:true)

(* --- Monotone sequence discipline ------------------------------------- *)

let ack ~seq = pkt ~kind:Net.Packet.Ack ~id:0 ~seq

let test_monotone_ack_regression () =
  let r = Validate.Report.create () in
  let m = Validate.Monotone.create r in
  Validate.Monotone.observe_inject m ~time:0. (ack ~seq:5 ());
  Validate.Monotone.observe_inject m ~time:1. (ack ~seq:5 ());
  check_total "repeated cumulative ACK is legal" 0 r;
  Validate.Monotone.observe_inject m ~time:2. (ack ~seq:3 ());
  check_total "ACK regression caught" 1 r;
  check_detail "names the regression" "ACK went backwards" r

let test_monotone_data_contiguity () =
  let r = Validate.Report.create () in
  let m = Validate.Monotone.create r in
  Validate.Monotone.observe_inject m ~time:0. (pkt ~id:1 ~seq:0 ());
  Validate.Monotone.observe_inject m ~time:1. (pkt ~id:2 ~seq:1 ());
  check_total "contiguous new data is clean" 0 r;
  Validate.Monotone.observe_inject m ~time:2. (pkt ~id:3 ~seq:5 ());
  check_total "sequence gap caught" 1 r;
  check_detail "names the gap" "not contiguous" r;
  (* Resynchronized: the stream continues from the gap without
     re-reporting every subsequent packet. *)
  Validate.Monotone.observe_inject m ~time:3. (pkt ~id:4 ~seq:6 ());
  check_total "one gap reported once" 1 r

let test_monotone_retransmit_bound () =
  let r = Validate.Report.create () in
  let m = Validate.Monotone.create r in
  Validate.Monotone.observe_inject m ~time:0. (pkt ~id:1 ~seq:0 ());
  Validate.Monotone.observe_inject m ~time:1. (pkt ~id:2 ~seq:1 ());
  Validate.Monotone.observe_inject m ~time:2.
    (pkt ~retransmit:true ~id:3 ~seq:0 ());
  check_total "legal retransmission is clean" 0 r;
  Validate.Monotone.observe_inject m ~time:3.
    (pkt ~retransmit:true ~id:4 ~seq:7 ());
  check_total "retransmit beyond highest sent caught" 1 r;
  check_detail "names the bound" "beyond highest sent" r

let test_monotone_tracks_delivered_acks () =
  let r = Validate.Report.create () in
  let m = Validate.Monotone.create r in
  Alcotest.(check int) "no ACK yet" 0
    (Validate.Monotone.max_ack_delivered m ~conn:1);
  Validate.Monotone.observe_deliver m ~time:0. (ack ~seq:4 ());
  Validate.Monotone.observe_deliver m ~time:1. (ack ~seq:2 ());
  Alcotest.(check int) "largest delivered ACK" 4
    (Validate.Monotone.max_ack_delivered m ~conn:1);
  check_total "delivery tracking adds no violations" 0 r

(* --- Tahoe window rules ------------------------------------------------ *)

let tahoe_checker r =
  Validate.Tahoe_rules.create r ~subject:"conn 1" ~maxwnd:20

let test_tahoe_clean_trajectory () =
  let r = Validate.Report.create () in
  let t = tahoe_checker r in
  (* Slow start: +1 per ACK up to ssthresh... *)
  Validate.Tahoe_rules.observe_cwnd t ~time:0. ~cwnd:8. ~ssthresh:10.;
  Validate.Tahoe_rules.observe_cwnd t ~time:1. ~cwnd:9. ~ssthresh:10.;
  Validate.Tahoe_rules.observe_cwnd t ~time:2. ~cwnd:10. ~ssthresh:10.;
  (* ...then congestion avoidance above ssthresh... *)
  Validate.Tahoe_rules.observe_cwnd t ~time:3. ~cwnd:10.1 ~ssthresh:10.;
  (* ...then a timeout resets to 1 with ssthresh = flight/2. *)
  Validate.Tahoe_rules.observe_loss t ~time:5. Tcp.Cc.Timeout;
  Validate.Tahoe_rules.observe_cwnd t ~time:5. ~cwnd:1. ~ssthresh:5.05;
  check_total "textbook Tahoe trajectory is clean" 0 r

let test_tahoe_slow_start_burst () =
  let r = Validate.Report.create () in
  let t = tahoe_checker r in
  Validate.Tahoe_rules.observe_cwnd t ~time:0. ~cwnd:2. ~ssthresh:10.;
  Validate.Tahoe_rules.observe_cwnd t ~time:1. ~cwnd:4. ~ssthresh:10.;
  check_total "slow-start growth above 1/ACK caught" 1 r;
  check_detail "names the limit" "limit is 1" r

let test_tahoe_ca_burst () =
  let r = Validate.Report.create () in
  let t = tahoe_checker r in
  Validate.Tahoe_rules.observe_cwnd t ~time:0. ~cwnd:10. ~ssthresh:5.;
  Validate.Tahoe_rules.observe_cwnd t ~time:1. ~cwnd:11. ~ssthresh:5.;
  check_total "congestion-avoidance growth above 1/⌊cwnd⌋ caught" 1 r;
  check_detail "names the limit" "limit is 1/10" r;
  (* The legal step is clean. *)
  Validate.Tahoe_rules.observe_cwnd t ~time:2. ~cwnd:(11. +. (1. /. 11.))
    ~ssthresh:5.;
  check_total "legal CA step" 1 r

let test_tahoe_missing_reset () =
  let r = Validate.Report.create () in
  let t = tahoe_checker r in
  Validate.Tahoe_rules.observe_cwnd t ~time:0. ~cwnd:8. ~ssthresh:4.;
  Validate.Tahoe_rules.observe_loss t ~time:1. Tcp.Cc.Timeout;
  Validate.Tahoe_rules.observe_cwnd t ~time:1. ~cwnd:8. ~ssthresh:4.;
  check_total "missing post-loss reset caught" 1 r;
  check_detail "names the reset" "must reset to 1" r

let test_tahoe_wrong_ssthresh () =
  let r = Validate.Report.create () in
  let t = tahoe_checker r in
  Validate.Tahoe_rules.observe_cwnd t ~time:0. ~cwnd:12. ~ssthresh:6.;
  Validate.Tahoe_rules.observe_loss t ~time:1. Tcp.Cc.Fast_retransmit;
  Validate.Tahoe_rules.observe_cwnd t ~time:1. ~cwnd:1. ~ssthresh:12.;
  check_total "wrong post-loss ssthresh caught" 1 r;
  check_detail "names flight/2" "flight/2" r

let test_tahoe_ssthresh_drift () =
  let r = Validate.Report.create () in
  let t = tahoe_checker r in
  Validate.Tahoe_rules.observe_cwnd t ~time:0. ~cwnd:10. ~ssthresh:5.;
  Validate.Tahoe_rules.observe_cwnd t ~time:1. ~cwnd:10.05 ~ssthresh:8.;
  check_total "ssthresh change without a loss caught" 1 r;
  check_detail "names the drift" "without a loss" r

let test_tahoe_window_bounds () =
  let r = Validate.Report.create () in
  let t = tahoe_checker r in
  Validate.Tahoe_rules.observe_cwnd t ~time:0. ~cwnd:25. ~ssthresh:10.;
  check_total "cwnd above maxwnd caught" 1 r;
  check_detail "names the advertised window" "above the advertised window" r;
  let t2 = tahoe_checker r in
  Validate.Tahoe_rules.observe_cwnd t2 ~time:1. ~cwnd:0.5 ~ssthresh:10.;
  check_total "cwnd below 1 caught" 2 r

let test_tahoe_shrink_without_loss () =
  let r = Validate.Report.create () in
  let t = tahoe_checker r in
  Validate.Tahoe_rules.observe_cwnd t ~time:0. ~cwnd:10. ~ssthresh:5.;
  Validate.Tahoe_rules.observe_cwnd t ~time:1. ~cwnd:9. ~ssthresh:5.;
  check_total "cwnd shrink without a loss caught" 1 r;
  check_detail "names the shrink" "shrank" r

(* --- Full harness over the examples/ scenario set ---------------------- *)

(* Each entry mirrors one of the shipped example programs / paper figures.
   With validation enabled in the scenario, every checker runs inside the
   simulation and the run must come out clean. *)
let example_scenarios () =
  let open Core.Scenario in
  [
    (* examples/quickstart.ml: one connection, tau = 1 s, buffer 20. *)
    make ~name:"quickstart" ~tau:1.0 ~buffer:(Some 20)
      ~conns:[ conn Forward ]
      ~duration:200. ~warmup:60. ~validate:true ();
    (* examples/two_way_dynamics.ml: bidirectional, short wire. *)
    make ~name:"two-way-short" ~tau:0.01 ~buffer:(Some 20)
      ~conns:(stagger ~step:2. [ conn Forward; conn Reverse ])
      ~duration:120. ~warmup:40. ~validate:true ();
    (* examples/two_way_dynamics.ml: bidirectional, long wire. *)
    make ~name:"two-way-long" ~tau:1.0 ~buffer:(Some 20)
      ~conns:(stagger ~step:2. [ conn Forward; conn Reverse ])
      ~duration:150. ~warmup:50. ~validate:true ();
    (* examples/ack_compression.ml territory: delayed ACKs both ways. *)
    make ~name:"delack" ~tau:0.1 ~buffer:(Some 15)
      ~conns:
        (stagger ~step:3.
           [ conn ~delayed_ack:true Forward; conn ~delayed_ack:true Reverse ])
      ~duration:120. ~warmup:40. ~validate:true ();
    (* examples/buffer_sizing.ml territory: infinite buffer. *)
    make ~name:"infinite-buffer" ~tau:0.1 ~buffer:None
      ~conns:[ conn ~maxwnd:30 Forward; conn ~maxwnd:25 Reverse ]
      ~duration:100. ~warmup:30. ~validate:true ();
    (* Alternative gateway disciplines (checker subset adapts). *)
    make ~name:"random-drop" ~tau:0.1 ~buffer:(Some 20)
      ~gateway:(Net.Discipline.Random_drop { seed = 42 })
      ~conns:(stagger ~step:2. [ conn Forward; conn Reverse ])
      ~duration:100. ~warmup:30. ~validate:true ();
    make ~name:"fair-queue" ~tau:0.1 ~buffer:(Some 20)
      ~gateway:Net.Discipline.Fair_queue
      ~conns:(stagger ~step:2. [ conn Forward; conn Reverse ])
      ~duration:100. ~warmup:30. ~validate:true ();
  ]

let test_examples_clean () =
  List.iter
    (fun scenario ->
      let r = Core.Runner.run scenario in
      match Core.Runner.validation_report r with
      | None -> Alcotest.fail "validation was enabled but produced no report"
      | Some report ->
        Alcotest.(check string)
          (Printf.sprintf "%s runs clean" scenario.Core.Scenario.name)
          "clean (0 violations)"
          (Validate.Report.summary report))
    (example_scenarios ())

let test_harness_cross_checks () =
  (* The harness's delivered-ACK view must agree exactly with each
     sender's own account of progress. *)
  let scenario =
    Core.Scenario.make ~name:"cross-check" ~tau:0.01 ~buffer:(Some 20)
      ~conns:
        (Core.Scenario.stagger ~step:2.
           Core.Scenario.[ conn Forward; conn Reverse ])
      ~duration:100. ~warmup:30. ~validate:true ()
  in
  let r = Core.Runner.run scenario in
  let h =
    match r.Core.Runner.validation with
    | Some h -> h
    | None -> Alcotest.fail "harness missing"
  in
  Array.iteri
    (fun i (_, conn) ->
      Alcotest.(check int)
        (Printf.sprintf "conn %d delivered = max ACK seen on the wire" (i + 1))
        (Tcp.Connection.delivered conn)
        (Validate.Harness.max_ack_delivered h ~conn:(i + 1)))
    r.Core.Runner.conns;
  (* And the conservation ledger must balance. *)
  let c = Validate.Harness.conservation h in
  Alcotest.(check int) "ledger balances"
    (Validate.Conservation.injected c)
    (Validate.Conservation.delivered c
    + Validate.Conservation.dropped c
    + Validate.Conservation.in_flight c)

(* --- Validation's allocation ---------------------------------------------- *)

(* The engine gate's run (bench/main.exe engine): fig-4 two-way, 100
   sim-s, about 21k events. *)
let engine_scenario ~validate =
  let open Core.Scenario in
  make ~name:"engine-bench" ~tau:0.01 ~buffer:(Some 20)
    ~conns:[ conn Forward; conn ~start_time:1. Reverse ]
    ~duration:100. ~warmup:1. ~validate ()

(* Minor words per event of one run, after a warm-up run.  Both runs
   keep the Cwnd log, so each has a cwnd listener besides the checkers:
   a sender boxes cwnd and ssthresh on every fire once anything listens,
   4 words per ACK that are the sender's cost, not the checkers'.  With
   no other listener the difference below reads 2.200. *)
let words_per_event scenario =
  let run () = Core.Runner.run ~logs:[ Cwnd ] scenario in
  ignore (run () : Core.Runner.result);
  let w0 = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. w0 in
  words
  /. float_of_int
       (Engine.Sim.events_run (Net.Network.sim r.dumbbell.Net.Topology.net))

(* The checkers' extra minor words per event, an exact count: 1.947 on
   OCaml 5.1.1 in the release profile, plus the trace gate's 10% band.
   A boxed float per event (2 words) fails it, and so does one boxed
   per hook fire, as the model's hooks did when they handed over the
   time (3.662).  The OCaml 4.14 count has not been read. *)
let validation_words_limit = 2.14

let test_validation_allocation () =
  let extra =
    words_per_event (engine_scenario ~validate:true)
    -. words_per_event (engine_scenario ~validate:false)
  in
  Alcotest.(check bool)
    (Printf.sprintf "validation adds %.3f minor words/event (limit %.2f)" extra
       validation_words_limit)
    true
    (extra <= validation_words_limit)

(* --- Report order --------------------------------------------------------- *)

(* When two checkers report at one event, the harness's wiring decides
   which comes first in the report.  These runs feed rogue events through
   the public model API: a packet injected twice (Monotone sees a gap,
   Conservation a duplicate id), a never-injected packet sent straight
   into a link (Conservation flags its delivery), the same packet sent
   again into that drop-tail link once its buffer is full (Fifo_order sees
   a queued id discarded, Conservation a drop of a never-injected packet),
   and a fault plan with loss and duplication.  Every report goes into one
   MD5, so swapping either pair of checkers changes it. *)

(* Two hosts joined by a duplex drop-tail link whose buffer holds
   [buffer] packets, the one in service included. *)
let two_hosts ~buffer =
  let sim = Engine.Sim.create () in
  let net = Net.Network.create sim in
  let h1 = Net.Network.add_host net ~name:"h1" ~proc_delay:1e-4 in
  let h2 = Net.Network.add_host net ~name:"h2" ~proc_delay:1e-4 in
  let fwd, bwd =
    Net.Network.add_duplex net ~src:h1 ~dst:h2 ~bandwidth:1e6 ~prop_delay:0.01
      ~buffer:(Some buffer)
  in
  Net.Network.set_route net ~node:h1 ~dst:h2 ~link:fwd;
  Net.Network.set_route net ~node:h2 ~dst:h1 ~link:bwd;
  Net.Network.register_endpoint net ~host:h2 ~conn:1 (fun _ -> ());
  let pkt seq =
    Net.Network.make_packet net ~conn:1 ~kind:Net.Packet.Data ~seq ~size:500
      ~src:h1 ~dst:h2 ~retransmit:false
  in
  let send p = Net.Network.send_from_host net ~host:h1 p in
  (sim, net, fwd, pkt, send)

(* Offer [p] to [link] until the link drops it. *)
let rec send_until_dropped link p =
  match Net.Link.send link p with
  | `Ok -> send_until_dropped link p
  | `Dropped -> ()

let rogue_report ~faults =
  let sim, net, fwd, pkt, send = two_hosts ~buffer:4 in
  Option.iter
    (fun seed ->
      ignore
        (Faults.Plan.install net fwd ~seed
           (Faults.Spec.merge (Faults.Spec.bernoulli 0.25)
              (Faults.Spec.duplicate 0.25))
          : Faults.Plan.t))
    faults;
  let h = Validate.Harness.attach net ~conns:[] in
  let rogue = pkt 7 in
  let at time f =
    ignore (Engine.Sim.at sim ~time f : Engine.Sim.handle)
  in
  for i = 0 to 9 do
    at (0.1 *. float_of_int i) (fun () ->
        let p = pkt i in
        send p;
        if i mod 3 = 1 then send p;
        if i mod 2 = 0 then ignore (Net.Link.send fwd rogue : [ `Ok | `Dropped ]))
  done;
  at 1.5 (fun () -> send_until_dropped fwd rogue);
  Engine.Sim.run_to_completion sim;
  Validate.Report.to_string
    (Validate.Harness.finalize h)

(* One Tahoe connection over a lossy, duplicating bottleneck: every
   checker is wired, and the run is clean. *)
let faulted_tahoe_report () =
  let sim = Engine.Sim.create () in
  let d =
    Net.Topology.dumbbell sim
      (Net.Topology.params ~tau:0.01 ~buffer:(Some 8) ())
  in
  let conn =
    Tcp.Connection.create d.net
      (Tcp.Config.make ~conn:1 ~src_host:d.host1 ~dst_host:d.host2 ())
  in
  let h = Validate.Harness.attach d.net ~conns:[ conn ] in
  ignore
    (Faults.Plan.install d.net d.fwd ~seed:5
       (Faults.Spec.merge (Faults.Spec.bernoulli 0.05)
          (Faults.Spec.duplicate 0.05))
      : Faults.Plan.t);
  Engine.Sim.run sim ~until:20.;
  Validate.Report.to_string
    (Validate.Harness.finalize h)

let test_report_order_pinned () =
  let reports =
    [ rogue_report ~faults:None; rogue_report ~faults:(Some 3);
      faulted_tahoe_report () ]
  in
  Alcotest.(check string)
    "reports of the rogue and faulted runs"
    "0530f2fcdf56fa1a579f570f2e622a3a"
    (Digest.to_hex (Digest.string (String.concat "\n" reports)))

let suite =
  ( "validate",
    [
      Alcotest.test_case "report cap and totals" `Quick test_report_cap;
      Alcotest.test_case "report rejects bad cap" `Quick
        test_report_rejects_bad_cap;
      Alcotest.test_case "clock backwards" `Quick test_clock_backwards;
      Alcotest.test_case "clock attached to sim" `Quick test_clock_attached;
      Alcotest.test_case "conservation clean" `Quick test_conservation_clean;
      Alcotest.test_case "conservation violations" `Quick
        test_conservation_violations;
      Alcotest.test_case "conservation drop then deliver" `Quick
        test_conservation_drop_then_deliver;
      Alcotest.test_case "fifo reorder" `Quick test_fifo_reorder;
      Alcotest.test_case "fifo occupancy bounds" `Quick
        test_fifo_occupancy_bounds;
      Alcotest.test_case "fifo drop rules" `Quick test_fifo_drop_rules;
      Alcotest.test_case "fifo finalize mismatch" `Quick
        test_fifo_finalize_mismatch;
      Alcotest.test_case "fault duplicate injects" `Quick
        test_fault_duplicate_injects;
      Alcotest.test_case "fault drop sanctions one drop" `Quick
        test_fault_drop_sanctions_one;
      Alcotest.test_case "fault delay changes nothing" `Quick
        test_fault_delay_changes_nothing;
      Alcotest.test_case "monotone ack regression" `Quick
        test_monotone_ack_regression;
      Alcotest.test_case "monotone data contiguity" `Quick
        test_monotone_data_contiguity;
      Alcotest.test_case "monotone retransmit bound" `Quick
        test_monotone_retransmit_bound;
      Alcotest.test_case "monotone delivered acks" `Quick
        test_monotone_tracks_delivered_acks;
      Alcotest.test_case "tahoe clean trajectory" `Quick
        test_tahoe_clean_trajectory;
      Alcotest.test_case "tahoe slow-start burst" `Quick
        test_tahoe_slow_start_burst;
      Alcotest.test_case "tahoe CA burst" `Quick test_tahoe_ca_burst;
      Alcotest.test_case "tahoe missing reset" `Quick test_tahoe_missing_reset;
      Alcotest.test_case "tahoe wrong ssthresh" `Quick test_tahoe_wrong_ssthresh;
      Alcotest.test_case "tahoe ssthresh drift" `Quick
        test_tahoe_ssthresh_drift;
      Alcotest.test_case "tahoe window bounds" `Quick test_tahoe_window_bounds;
      Alcotest.test_case "tahoe shrink" `Quick test_tahoe_shrink_without_loss;
      Alcotest.test_case "examples run clean" `Slow test_examples_clean;
      Alcotest.test_case "harness cross-checks" `Quick
        test_harness_cross_checks;
      Alcotest.test_case "report order pinned" `Quick test_report_order_pinned;
      Alcotest.test_case "validation allocation bounded" `Quick
        test_validation_allocation;
    ] )
