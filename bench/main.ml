(* bench/main.exe — renders the paper's figures and benchmarks the
   simulator substrate.  The paper's tables are `netsim experiment`.

     dune exec bench/main.exe                   gallery, then micro
     dune exec bench/main.exe -- gallery        only the figure gallery
     dune exec bench/main.exe -- micro          only the bechamel benchmarks
     dune exec bench/main.exe -- micro --json   ... and write BENCH_micro.json
     dune exec bench/main.exe -- sweep          pool scaling per backend;
                                                BENCH_sweep.json
     dune exec bench/main.exe -- sweep --check BENCH_sweep.json
                                                regression guard (25% band)
     dune exec bench/main.exe -- engine         hot-path ns/event + words/event
     dune exec bench/main.exe -- engine --json  ... and write BENCH_engine.json
     dune exec bench/main.exe -- engine --check BENCH_engine.json
                                                regression guard (25% band)
     dune exec bench/main.exe -- trace          recorder retained bytes/event
                                                + minor words/event
     dune exec bench/main.exe -- trace --json   ... and write BENCH_trace.json
     dune exec bench/main.exe -- trace --check BENCH_trace.json
                                                regression guard (10% band)
     dune exec bench/main.exe -- cc             per-CC-variant wall clock

   Sections:
     1. figure gallery — ASCII renderings of the queue/cwnd series the
        paper plots
     2. micro — bechamel measurements of the substrate  *)

let banner title =
  let line = String.make 74 '=' in
  Printf.printf "\n%s\n== %s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* 1. Figure gallery                                                   *)
(* ------------------------------------------------------------------ *)

let plot_run title (r : Core.Runner.result) ~span =
  Printf.printf "\n--- %s ---\n" title;
  let t1 = r.t1 in
  let t0 = Float.max r.t0 (t1 -. span) in
  Printf.printf "queue at switch 1 (packets), [%.0f, %.0f] s:\n" t0 t1;
  print_string
    (Core.Ascii_plot.render ~width:96 ~height:13
       (Trace.Queue_trace.series r.q1) ~t0 ~t1);
  Printf.printf "queue at switch 2 (packets):\n";
  print_string
    (Core.Ascii_plot.render ~width:96 ~height:13
       (Trace.Queue_trace.series r.q2) ~t0 ~t1);
  if Array.length r.cwnds >= 2 then begin
    Printf.printf "congestion windows over the full window:\n";
    print_string
      (Core.Ascii_plot.render_pair ~width:96 ~height:13
         ~labels:("cwnd-1", "cwnd-2")
         (Trace.Cwnd_trace.cwnd r.cwnds.(0))
         (Trace.Cwnd_trace.cwnd r.cwnds.(1))
         ~t0:r.t0 ~t1:r.t1)
  end
  else if Array.length r.cwnds = 1 then begin
    Printf.printf "congestion window over the full window:\n";
    print_string
      (Core.Ascii_plot.render ~width:96 ~height:13
         (Trace.Cwnd_trace.cwnd r.cwnds.(0))
         ~t0:r.t0 ~t1:r.t1)
  end

(* Seconds of queue series to show: a few cycles of each figure. *)
let gallery_span = function
  | "fig2" | "fig67" -> 120.
  | "fig8" | "fig9" -> 20.
  | _ -> 30.

let run_gallery () =
  banner "FIGURE GALLERY: the series the paper plots";
  List.iter
    (fun (f : Core.Experiments.figure) ->
      plot_run f.caption
        (Core.Runner.run f.scenario)
        ~span:(gallery_span f.fig))
    Core.Experiments.figures

(* ------------------------------------------------------------------ *)
(* 2. Micro-benchmarks (bechamel)                                      *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let bench_sim_cascade =
  Test.make ~name:"sim: 1k chained events"
    (Staged.stage (fun () ->
         let sim = Engine.Sim.create () in
         let rec tick n () =
           if n > 0 then
             ignore (Engine.Sim.schedule sim ~delay:0.001 (tick (n - 1))
                 : Engine.Sim.handle)
         in
         ignore (Engine.Sim.schedule sim ~delay:0.001 (tick 999)
             : Engine.Sim.handle);
         Engine.Sim.run_to_completion sim))

let bench_cc =
  (* A Tahoe-style event mix (an ACK stream with a timeout every 97th
     event) through the packed Cc interface, closure-record dispatch
     included. *)
  Test.make ~name:"cc dispatch: 1k acks (newreno)"
    (Staged.stage (fun () ->
         let c = Tcp.Cc_zoo.make (Tcp.Cc.spec "newreno") ~maxwnd:1000 in
         let ackno = ref 0 in
         for i = 1 to 1000 do
           incr ackno;
           if i mod 97 = 0 then
             Tcp.Cc.on_loss c Tcp.Cc.Timeout ~highest_sent:!ackno
           else ignore (Tcp.Cc.on_ack c ~ackno:!ackno ~newly:1 : bool)
         done))

let bench_rto =
  Test.make ~name:"rto estimator: 1k samples"
    (Staged.stage (fun () ->
         let r = Tcp.Rto.create Tcp.Rto.default_params in
         for i = 1 to 1000 do
           Tcp.Rto.sample r (0.1 +. (0.001 *. float_of_int (i mod 50)))
         done))

let bench_end_to_end =
  Test.make ~name:"simulate 10s of fig-4 scenario"
    (Staged.stage (fun () ->
         let scenario =
           Core.Scenario.make ~name:"bench" ~tau:0.01 ~buffer:(Some 20)
             ~conns:
               [
                 Core.Scenario.conn Core.Scenario.Forward;
                 Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse;
               ]
             ~duration:10. ~warmup:1. ()
         in
         ignore (Core.Runner.run scenario : Core.Runner.result)))

let bench_end_to_end_validated =
  Test.make ~name:"simulate 10s of fig-4, validation on"
    (Staged.stage (fun () ->
         let scenario =
           Core.Scenario.make ~name:"bench-validated" ~tau:0.01
             ~buffer:(Some 20)
             ~conns:
               [
                 Core.Scenario.conn Core.Scenario.Forward;
                 Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse;
               ]
             ~duration:10. ~warmup:1. ~validate:true ()
         in
         ignore (Core.Runner.run scenario : Core.Runner.result)))

let bench_series =
  Test.make ~name:"series: resample 10k samples"
    (Staged.stage
       (let s = Trace.Series.create () in
        for i = 0 to 9_999 do
          Trace.Series.add s ~time:(float_of_int i)
            ~value:(float_of_int (i mod 23))
        done;
        fun () ->
          ignore (Trace.Series.resample s ~t0:0. ~t1:10_000. ~dt:1. : float array)))

(* Returns (name, nanoseconds-per-run option) pairs, sorted by name, so
   the caller can render a table or machine-readable JSON. *)
let measure_micro () =
  let tests =
    [
      bench_sim_cascade;
      bench_cc;
      bench_rto;
      bench_end_to_end;
      bench_end_to_end_validated;
      bench_series;
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let rows = ref [] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> Some t
            | _ -> None
          in
          rows := (name, ns) :: !rows)
        results)
    tests;
  List.sort (fun (a, _) (b, _) -> compare a b) !rows

let run_micro ~json () =
  banner "MICRO-BENCHMARKS (bechamel): simulator substrate";
  let rows = measure_micro () in
  Printf.printf "%-36s %14s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        match ns with
        | None -> "n/a"
        | Some t ->
          if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
          else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
          else Printf.sprintf "%.0f ns" t
      in
      Printf.printf "%-36s %14s\n" name pretty)
    rows;
  if json then begin
    let file = "BENCH_micro.json" in
    let oc = open_out file in
    output_string oc "{\n";
    List.iteri
      (fun i (name, ns) ->
        Printf.fprintf oc "  \"%s\": %s%s\n" (Obs.Json.escape name)
          (match ns with
           | Some t -> Printf.sprintf "%.1f" t
           | None -> "null")
          (if i = List.length rows - 1 then "" else ","))
      rows;
    output_string oc "}\n";
    close_out oc;
    Printf.printf "wrote %s (nanoseconds per run)\n" file
  end

(* ------------------------------------------------------------------ *)
(* Engine hot path: ns/event and minor-words/event regression guard    *)
(* ------------------------------------------------------------------ *)

(* Profiles the event hot path on a 100 sim-second fig-4-style two-way
   run: wall time per event (best of [reps]) and minor-heap words per
   event (a single Gc.minor_words delta — allocation is deterministic,
   so one run suffices).  [--json] commits the numbers to
   BENCH_engine.json; [--check FILE] re-measures and fails if either
   metric exceeds the committed baseline by more than 25%. *)

let engine_scenario () =
  Core.Scenario.make ~name:"engine-bench" ~tau:0.01 ~buffer:(Some 20)
    ~conns:
      [
        Core.Scenario.conn Core.Scenario.Forward;
        Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse;
      ]
    ~duration:100. ~warmup:1. ()

type engine_profile = {
  ep_events : int;
  ep_ns_per_event : float;
  ep_minor_words_per_event : float;
}

let measure_engine () =
  let scenario = engine_scenario () in
  let run () = Core.Runner.run scenario in
  let r = run () in  (* warm caches and the minor heap *)
  let events =
    Engine.Sim.events_run
      (Net.Network.sim r.Core.Runner.dumbbell.Net.Topology.net)
  in
  let w0 = Gc.minor_words () in
  ignore (run () : Core.Runner.result);
  let words = Gc.minor_words () -. w0 in
  let reps = 5 in
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (run () : Core.Runner.result);
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  {
    ep_events = events;
    ep_ns_per_event = 1e9 *. !best /. float_of_int events;
    ep_minor_words_per_event = words /. float_of_int events;
  }

let write_engine_json file (p : engine_profile) =
  let oc = open_out file in
  Printf.fprintf oc
    "{\n  \"scenario\": \"fig4-two-way-100s\",\n  \"events\": %d,\n\
    \  \"ns_per_event\": %.1f,\n  \"minor_words_per_event\": %.3f\n}\n"
    p.ep_events p.ep_ns_per_event p.ep_minor_words_per_event;
  close_out oc;
  Printf.printf "wrote %s\n" file

let print_engine_profile (p : engine_profile) =
  Printf.printf "events per run:         %d\n" p.ep_events;
  Printf.printf "time per event:         %.1f ns\n" p.ep_ns_per_event;
  Printf.printf "minor words per event:  %.3f\n" p.ep_minor_words_per_event

(* Minimal JSON number extraction, enough for the flat baseline files
   this binary writes itself (no JSON library in the toolchain). *)
let json_number_field file key =
  let ic = open_in file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let needle = Printf.sprintf "\"%s\"" key in
  let n = String.length s and m = String.length needle in
  let rec find i =
    if i + m > n then
      failwith (Printf.sprintf "%s: no field %s" file needle)
    else if String.sub s i m = needle then i + m
    else find (i + 1)
  in
  let j = find 0 in
  Scanf.sscanf (String.sub s j (n - j)) " : %f" (fun v -> v)

let run_engine ~json () =
  banner "ENGINE HOT PATH: ns/event and minor-words/event";
  let p = measure_engine () in
  print_engine_profile p;
  if json then write_engine_json "BENCH_engine.json" p;
  0

let run_engine_check baseline_file =
  banner "ENGINE HOT PATH: regression check against committed baseline";
  let base_ns = json_number_field baseline_file "ns_per_event" in
  let base_words = json_number_field baseline_file "minor_words_per_event" in
  let p = measure_engine () in
  print_engine_profile p;
  write_engine_json "BENCH_engine.current.json" p;
  let tolerance = 0.25 in
  let check name measured base =
    (* Wall time is noisy on shared CI runners; allocation is exact.  The
       same 25% band covers both: words/event regressions from a stray
       per-event closure are far larger than 25%. *)
    let limit = base *. (1. +. tolerance) in
    let ok = measured <= limit in
    Printf.printf "%-24s %10.3f  (baseline %.3f, limit %.3f)  %s\n" name
      measured base limit
      (if ok then "ok" else "REGRESSION");
    ok
  in
  let ns_ok = check "ns/event" p.ep_ns_per_event base_ns in
  let words_ok =
    check "minor words/event" p.ep_minor_words_per_event base_words
  in
  if ns_ok && words_ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Recorder storage: retained bytes/event and minor words/event        *)
(* ------------------------------------------------------------------ *)

(* Memory cost of the lib/trace recorders Runner.run attaches to every
   run, on fig-3's 5+5 two-way connections over 600 sim-seconds (about
   180k events).  Two allocation counts, both deterministic:
     retained_bytes_per_event — Obj.reachable_words of the held
       Runner.result after a full major GC, per event.  The recorders'
       storage dominates it; the network and TCP state it also reaches
       do not grow with the run.
     minor_words_per_event    — Gc.minor_words over one whole
       Runner.run, per event: the hot path including the recorder hooks.
   [--json] commits them to BENCH_trace.json; [--check FILE] re-measures
   and fails if either exceeds the committed baseline by more than 10%
   (counts do not drift, so the band only has to absorb compiler and
   stdlib differences between CI legs). *)

let trace_scenario () =
  Core.Scenario.make ~name:"trace-bench" ~tau:0.01 ~buffer:(Some 20)
    ~conns:
      (Core.Scenario.stagger ~step:0.7
         (List.init 10 (fun i ->
              Core.Scenario.conn
                (if i < 5 then Core.Scenario.Forward else Core.Scenario.Reverse))))
    ~duration:600. ~warmup:200. ()

type trace_profile = {
  tp_events : int;
  tp_retained_bytes_per_event : float;
  tp_minor_words_per_event : float;
}

let measure_trace () =
  let scenario = trace_scenario () in
  ignore (Core.Runner.run scenario : Core.Runner.result);
  let w0 = Gc.minor_words () in
  let r = Core.Runner.run scenario in
  let words = Gc.minor_words () -. w0 in
  Gc.full_major ();
  let retained = Obj.reachable_words (Obj.repr r) * (Sys.word_size / 8) in
  let events =
    Engine.Sim.events_run (Net.Network.sim r.Core.Runner.dumbbell.Net.Topology.net)
  in
  {
    tp_events = events;
    tp_retained_bytes_per_event = float_of_int retained /. float_of_int events;
    tp_minor_words_per_event = words /. float_of_int events;
  }

let write_trace_json file (p : trace_profile) =
  let oc = open_out file in
  Printf.fprintf oc
    "{\n  \"scenario\": \"fig3-5+5-600s\",\n  \"events\": %d,\n\
    \  \"retained_bytes_per_event\": %.3f,\n\
    \  \"minor_words_per_event\": %.3f\n}\n"
    p.tp_events p.tp_retained_bytes_per_event p.tp_minor_words_per_event;
  close_out oc;
  Printf.printf "wrote %s\n" file

let print_trace_profile (p : trace_profile) =
  Printf.printf "events per run:            %d\n" p.tp_events;
  Printf.printf "retained bytes per event:  %.3f\n" p.tp_retained_bytes_per_event;
  Printf.printf "minor words per event:     %.3f\n" p.tp_minor_words_per_event

let run_trace ~json () =
  banner "RECORDER STORAGE: retained bytes/event and minor words/event";
  let p = measure_trace () in
  print_trace_profile p;
  if json then write_trace_json "BENCH_trace.json" p;
  0

let run_trace_check baseline_file =
  banner "RECORDER STORAGE: regression check against committed baseline";
  let base_bytes = json_number_field baseline_file "retained_bytes_per_event" in
  let base_words = json_number_field baseline_file "minor_words_per_event" in
  let p = measure_trace () in
  print_trace_profile p;
  write_trace_json "BENCH_trace.current.json" p;
  let check name measured base =
    let limit = base *. 1.10 in
    let ok = measured <= limit in
    Printf.printf "%-26s %10.3f  (baseline %.3f, limit %.3f)  %s\n" name
      measured base limit
      (if ok then "ok" else "REGRESSION");
    ok
  in
  let bytes_ok =
    check "retained bytes/event" p.tp_retained_bytes_per_event base_bytes
  in
  let words_ok = check "minor words/event" p.tp_minor_words_per_event base_words in
  if bytes_ok && words_ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Sweep scaling: the pool's backends at jobs 1 / 2 / 4                *)
(* ------------------------------------------------------------------ *)

(* Times the full Fig-8 buffer grid through Sweep.Driver under every
   backend this build has (fork everywhere, domains on OCaml 5) at
   several job counts, checks that each combination produces JSON
   byte-identical to the sequential run, and measures each backend's
   raw per-point dispatch cost on trivial tasks.

   Measurement order is load-bearing: OCaml 5 forbids Unix.fork in a
   process that has ever spawned a domain, so every fork-backend
   measurement runs before the first domain-backend one.

   BENCH_sweep.json is always written; [--check FILE] re-measures and
   fails if the in-process dispatch cost or the jobs=1 wall clock
   regresses more than 25% past the committed baseline.  Those two are
   the metrics a code change moves on any machine; the multi-job rows
   also depend on the runner's core count, so they are recorded (with
   [cores_available] and [parallel_ok] alongside, for scripts reading
   the speedups) but not gated. *)

type sweep_profile = {
  sp_points : int;
  sp_reps : int;
  sp_jobs1_seconds : float;
  sp_runs : (string * int * float) list;  (* backend, jobs, best seconds *)
  sp_inprocess_dispatch_us : float;
  sp_fork_dispatch_us : float;
  sp_domain_dispatch_us : float option;
  sp_byte_identical : bool;
}

let sweep_grid = Sweep.Grids.fig8

let measure_sweep () =
  let points = sweep_grid.points () in
  let reps = 3 in
  (* Sweep.Driver.run with the executor pinned. *)
  let run backend jobs =
    Sweep_pool.map ~backend ~jobs (fun p -> Sweep.Driver.run_point p) points
  in
  let time backend jobs =
    ignore (run backend jobs : Sweep.Summary.t list);
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (run backend jobs : Sweep.Summary.t list);
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let json backend jobs = Sweep.Driver.to_json (run backend jobs) in
  (* Raw dispatch: trivial tasks make the per-point overhead visible.
     Fork pays one Marshal value, a pipe write and a trip through the
     select loop per point, while domains pay one atomic fetch per index
     chunk. *)
  let dispatch_tasks = List.init 512 (fun i -> i) in
  let dispatch backend jobs =
    ignore
      (Sweep_pool.map ~backend ~jobs (fun x -> x) dispatch_tasks : int list);
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore
        (Sweep_pool.map ~backend ~jobs (fun x -> x) dispatch_tasks : int list);
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    1e6 *. !best /. float_of_int (List.length dispatch_tasks)
  in
  (* Sequential reference first ... *)
  let jobs1 = time Sweep_pool.Seq 1 in
  let reference = json Sweep_pool.Seq 1 in
  let inprocess_us = dispatch Sweep_pool.Seq 1 in
  (* ... then every fork measurement ... *)
  let fork_runs =
    List.map (fun j -> ("fork", j, time Sweep_pool.Fork j)) [ 2; 4 ]
  in
  let fork_identical =
    List.for_all (fun j -> json Sweep_pool.Fork j = reference) [ 2; 4 ]
  in
  let fork_us = dispatch Sweep_pool.Fork 2 in
  (* ... and only now domains: no fork beyond this point. *)
  let domain_runs, domain_identical, domain_us =
    if Sweep_pool.domain_backend_available then
      ( List.map (fun j -> ("domain", j, time Sweep_pool.Domain j)) [ 2; 4 ],
        List.for_all (fun j -> json Sweep_pool.Domain j = reference) [ 2; 4 ],
        Some (dispatch Sweep_pool.Domain 2) )
    else ([], true, None)
  in
  {
    sp_points = List.length points;
    sp_reps = reps;
    sp_jobs1_seconds = jobs1;
    sp_runs = fork_runs @ domain_runs;
    sp_inprocess_dispatch_us = inprocess_us;
    sp_fork_dispatch_us = fork_us;
    sp_domain_dispatch_us = domain_us;
    sp_byte_identical = fork_identical && domain_identical;
  }

(* Speedup rows above the usable core count measure scheduling overhead,
   not parallelism; say so next to them rather than leaving a puzzling
   sub-1x figure in the report. *)
let sweep_note (p : sweep_profile) =
  let avail = Sweep_pool.available_cores () in
  let max_jobs = List.fold_left (fun m (_, j, _) -> max m j) 1 p.sp_runs in
  if max_jobs > avail then
    Some
      (Printf.sprintf
         "job counts up to %d exceed the %d usable core(s); speedups beyond \
          jobs=%d measure scheduling overhead, not parallelism"
         max_jobs avail avail)
  else None

let print_sweep_profile (p : sweep_profile) =
  Printf.printf
    "grid: %s (%d points), best of %d runs, %d core(s) (%d usable)\n"
    sweep_grid.name p.sp_points p.sp_reps (Sweep_pool.cores ())
    (Sweep_pool.available_cores ());
  Printf.printf "%-8s jobs=1: %8.3f s\n" "seq" p.sp_jobs1_seconds;
  List.iter
    (fun (b, j, t) ->
      Printf.printf "%-8s jobs=%d: %8.3f s  (speedup %.2fx)\n" b j t
        (p.sp_jobs1_seconds /. t))
    p.sp_runs;
  (match sweep_note p with
   | Some s -> Printf.printf "note: %s\n" s
   | None -> ());
  Printf.printf "output byte-identical across backends and job counts: %b\n"
    p.sp_byte_identical;
  Printf.printf
    "dispatch (trivial tasks): in-process %.3f us/point, fork %.2f us/point%s\n"
    p.sp_inprocess_dispatch_us p.sp_fork_dispatch_us
    (match p.sp_domain_dispatch_us with
     | Some d -> Printf.sprintf ", domain %.3f us/point" d
     | None -> "")

let write_sweep_json file (p : sweep_profile) =
  let oc = open_out file in
  Printf.fprintf oc
    "{\n  \"grid\": \"%s\",\n  \"cores\": %d,\n  \"cores_available\": %d,\n\
    \  \"parallel_ok\": %b,\n  \"points\": %d,\n  \"reps\": %d,\n\
    %s  \"jobs1_seconds\": %.4f,\n  \"runs\": [\n%s\n  ],\n\
    \  \"inprocess_dispatch_us_per_point\": %.4f,\n\
    \  \"fork_dispatch_us_per_point\": %.3f,\n\
    \  \"domain_dispatch_us_per_point\": %s,\n\
    \  \"byte_identical\": %b\n}\n"
    sweep_grid.name (Sweep_pool.cores ())
    (Sweep_pool.available_cores ())
    (Sweep_pool.available_cores () >= 2)
    p.sp_points p.sp_reps
    (match sweep_note p with
     | Some s -> Printf.sprintf "  \"note\": \"%s\",\n" (Obs.Json.escape s)
     | None -> "")
    p.sp_jobs1_seconds
    (String.concat ",\n"
       (List.map
          (fun (b, j, t) ->
            Printf.sprintf
              "    {\"backend\": \"%s\", \"jobs\": %d, \"seconds\": %.4f, \
               \"speedup\": %.3f}"
              b j t (p.sp_jobs1_seconds /. t))
          p.sp_runs))
    p.sp_inprocess_dispatch_us p.sp_fork_dispatch_us
    (match p.sp_domain_dispatch_us with
     | Some d -> Printf.sprintf "%.4f" d
     | None -> "null")
    p.sp_byte_identical;
  close_out oc;
  Printf.printf "wrote %s\n" file

let run_sweep_bench () =
  banner "SWEEP SCALING: fig8 grid through the pool backends";
  let p = measure_sweep () in
  print_sweep_profile p;
  write_sweep_json "BENCH_sweep.json" p;
  if p.sp_byte_identical then 0 else 1

let run_sweep_check baseline_file =
  banner "SWEEP POOL: regression check against committed baseline";
  let base_dispatch =
    json_number_field baseline_file "inprocess_dispatch_us_per_point"
  in
  let base_jobs1 = json_number_field baseline_file "jobs1_seconds" in
  let p = measure_sweep () in
  print_sweep_profile p;
  write_sweep_json "BENCH_sweep.current.json" p;
  let tolerance = 0.25 in
  let check name measured base =
    let limit = base *. (1. +. tolerance) in
    let ok = measured <= limit in
    Printf.printf "%-28s %10.4f  (baseline %.4f, limit %.4f)  %s\n" name
      measured base limit
      (if ok then "ok" else "REGRESSION");
    ok
  in
  let dispatch_ok =
    check "in-process dispatch us/pt" p.sp_inprocess_dispatch_us base_dispatch
  in
  let jobs1_ok = check "jobs=1 wall seconds" p.sp_jobs1_seconds base_jobs1 in
  if not p.sp_byte_identical then
    print_endline "byte-identity across backends: FAILED";
  if dispatch_ok && jobs1_ok && p.sp_byte_identical then 0 else 1

(* ------------------------------------------------------------------ *)
(* 3. Validation overhead                                              *)
(* ------------------------------------------------------------------ *)

(* Wall-clock cost of running the lib/validate checkers inside a
   simulation, measured on a 300 sim-second two-way run.  The numbers
   quoted in DESIGN.md come from this subcommand. *)
let run_overhead () =
  banner "VALIDATION OVERHEAD: lib/validate checkers on vs. off";
  let scenario ~validate =
    Core.Scenario.make ~name:"overhead" ~tau:0.01 ~buffer:(Some 20)
      ~conns:
        [
          Core.Scenario.conn Core.Scenario.Forward;
          Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse;
        ]
      ~duration:300. ~warmup:10. ~validate ()
  in
  let time ~validate =
    let reps = 5 in
    (* warm once, then take the best of [reps] to shed GC noise *)
    ignore (Core.Runner.run (scenario ~validate) : Core.Runner.result);
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (Core.Runner.run (scenario ~validate) : Core.Runner.result);
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let off = time ~validate:false in
  let on = time ~validate:true in
  Printf.printf "validation off: %8.2f ms\n" (1000. *. off);
  Printf.printf "validation on:  %8.2f ms\n" (1000. *. on);
  Printf.printf "overhead:       %8.1f %%\n" (100. *. ((on /. off) -. 1.))

(* ------------------------------------------------------------------ *)
(* 4. Fault-injection overhead                                         *)
(* ------------------------------------------------------------------ *)

(* Cost of the lib/faults hook point.  Three configurations of the same
   300 sim-second two-way run:
     none     — no plan installed: the link must keep its fast path
                (a single option check per send/departure)
     zero     — a plan installed whose models never fire (loss=0, dup=0,
                jitter=0): per-packet RNG draws and in-propagation
                tracking, but no injected faults
     lossy    — 2% Bernoulli loss actually injected
   "none" vs the seed's fault-free runtime is the acceptance criterion:
   installing nothing must cost nothing measurable. *)
let run_faults_overhead () =
  banner "FAULT-INJECTION OVERHEAD: lib/faults hook point";
  let scenario ~faults =
    Core.Scenario.make ~name:"faults-overhead" ~tau:0.01 ~buffer:(Some 20)
      ~conns:
        [
          Core.Scenario.conn Core.Scenario.Forward;
          Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse;
        ]
      ~duration:300. ~warmup:10. ?faults ()
  in
  let time ~faults =
    let reps = 5 in
    ignore (Core.Runner.run (scenario ~faults) : Core.Runner.result);
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (Core.Runner.run (scenario ~faults) : Core.Runner.result);
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let plan spec = Some [ (Core.Scenario.Fwd_bottleneck, spec) ] in
  let none = time ~faults:None in
  let zero =
    time
      ~faults:
        (plan
           (Faults.Spec.make ~loss:(Faults.Spec.Bernoulli 0.)
              ~jitter:{ Faults.Spec.bound = 0.; preserve_order = true }
              ~duplicate:0. ()))
  in
  let lossy = time ~faults:(plan (Faults.Spec.bernoulli 0.02)) in
  Printf.printf "no plan installed:   %8.2f ms\n" (1000. *. none);
  Printf.printf "zero-rate plan:      %8.2f ms  (%+.1f %%)\n" (1000. *. zero)
    (100. *. ((zero /. none) -. 1.));
  Printf.printf "2%% bernoulli loss:   %8.2f ms  (%+.1f %%)\n" (1000. *. lossy)
    (100. *. ((lossy /. none) -. 1.))

(* ------------------------------------------------------------------ *)
(* 5b. CC variant zoo timing                                            *)
(* ------------------------------------------------------------------ *)

(* Wall-clock per congestion-control variant on the same
   two-way 100 sim-second configuration the engine bench uses: a cheap
   way to spot a zoo entry whose hooks blow up the hot path. *)
let run_cc_bench () =
  banner "CC VARIANT ZOO: wall-clock per variant, two-way 100 sim-seconds";
  let scenario cc =
    Core.Scenario.make ~name:"cc-bench" ~tau:0.01 ~buffer:(Some 20)
      ~conns:
        [
          Core.Scenario.conn ~cc Core.Scenario.Forward;
          Core.Scenario.conn ~cc ~start_time:1. Core.Scenario.Reverse;
        ]
      ~duration:100. ~warmup:1. ()
  in
  Printf.printf "%-18s %12s %12s\n" "variant" "time/run" "events";
  List.iter
    (fun name ->
      let sc = scenario (Tcp.Cc.spec name) in
      let r = Core.Runner.run sc in  (* warm *)
      let events =
        Engine.Sim.events_run
          (Net.Network.sim r.Core.Runner.dumbbell.Net.Topology.net)
      in
      let reps = 3 in
      let best = ref infinity in
      for _ = 1 to reps do
        let t0 = Unix.gettimeofday () in
        ignore (Core.Runner.run sc : Core.Runner.result);
        best := Float.min !best (Unix.gettimeofday () -. t0)
      done;
      Printf.printf "%-18s %9.2f ms %12d\n" name (1000. *. !best) events)
    Tcp.Cc_zoo.names;
  0

(* ------------------------------------------------------------------ *)
(* 5. Observability overhead                                           *)
(* ------------------------------------------------------------------ *)

(* Cost of the lib/obs probe on the engine-bench run, in five
   configurations:
     off       — Probe.disabled: no hooks installed at all; must match
                 the bare runtime (the zero-overhead-when-absent claim)
     metrics   — gauges over the model's own counters and state,
                 registered on every link and connection; the only
                 per-event cost is the queue-length histogram's bucket
                 scan on each enqueue
     flowstats — metrics plus the per-flow accounting registry (the
                 --flowstats-out path: Karn-mirrored RTT sampling, cwnd
                 extrema, delivered/retransmit counters)
     series    — metrics plus the 1 Hz recorder sampling every metric
                 into step series off preallocated rows (--metrics-out)
     trace     — full binary tracing (the --trace-out path: Btrace
                 writer, no flight ring) into a sink that drops the
                 bytes, so the number measures encoding, not disk
   [--json] commits the numbers to BENCH_obs.json; [--check FILE] gates
   each overhead percentage at the committed figure plus 25 percentage
   points (ratios of wall-clock runs are too noisy for a relative band),
   holds fully-traced runs under the 2x absolute target the binary
   format was built for, and holds flowstats under 1.10x the metrics-only
   run of the same process (a same-run ratio, immune to baseline
   drift). *)

(* Fully-traced runs must stay under 2x the untraced runtime (i.e.
   +100% overhead) no matter what the committed baseline says. *)
let trace_overhead_limit_pct = 100.

(* Per-flow accounting must stay within 10% of the metrics-only runtime
   measured in the same process. *)
let flowstats_vs_metrics_limit = 1.10

type obs_profile = {
  op_off_ms : float;
  op_metrics_ms : float;
  op_flowstats_ms : float;
  op_series_ms : float;
  op_trace_ms : float;
  op_metrics_pct : float;
  op_flowstats_pct : float;
  op_series_pct : float;
  op_trace_pct : float;
  op_events_traced : int;
}

let measure_obs () =
  let scenario = engine_scenario () in
  let drop (_ : string) = () in
  let trace_setup () = Obs.Probe.setup ~metrics:false ~btrace:drop () in
  let configs =
    [|
      (fun () -> Obs.Probe.disabled);
      (fun () -> Obs.Probe.setup ());
      (fun () -> Obs.Probe.setup ~flowstats:true ());
      (fun () -> Obs.Probe.setup ~series_dt:1.0 ());
      trace_setup;
    |]
  in
  (* Interleave the configurations round-robin and keep each one's best
     rep: a transient load spike then degrades one rep of every config
     instead of poisoning a single config's whole measurement, which is
     what makes overhead ratios of one-shot wall-clock runs unusable. *)
  let best = Array.make (Array.length configs) infinity in
  Array.iter
    (fun obs ->
      ignore (Core.Runner.run ~obs:(obs ()) scenario : Core.Runner.result))
    configs;
  for _rep = 1 to 7 do
    Array.iteri
      (fun i obs ->
        let t0 = Unix.gettimeofday () in
        ignore (Core.Runner.run ~obs:(obs ()) scenario : Core.Runner.result);
        best.(i) <- Float.min best.(i) (Unix.gettimeofday () -. t0))
      configs
  done;
  let off = best.(0) in
  let metrics = best.(1) in
  let flowstats = best.(2) in
  let series = best.(3) in
  let trace = best.(4) in
  let events_traced =
    let r = Core.Runner.run ~obs:(trace_setup ()) scenario in
    match r.Core.Runner.obs with
    | Some probe -> Obs.Probe.events_traced probe
    | None -> 0
  in
  let pct x = 100. *. ((x /. off) -. 1.) in
  {
    op_off_ms = 1000. *. off;
    op_metrics_ms = 1000. *. metrics;
    op_flowstats_ms = 1000. *. flowstats;
    op_series_ms = 1000. *. series;
    op_trace_ms = 1000. *. trace;
    op_metrics_pct = pct metrics;
    op_flowstats_pct = pct flowstats;
    op_series_pct = pct series;
    op_trace_pct = pct trace;
    op_events_traced = events_traced;
  }

let print_obs_profile (p : obs_profile) =
  Printf.printf "obs off:        %8.2f ms\n" p.op_off_ms;
  Printf.printf "metrics on:     %8.2f ms  (%+.1f %%)\n" p.op_metrics_ms
    p.op_metrics_pct;
  Printf.printf "+flowstats:     %8.2f ms  (%+.1f %%)\n" p.op_flowstats_ms
    p.op_flowstats_pct;
  Printf.printf "metrics+series: %8.2f ms  (%+.1f %%)\n" p.op_series_ms
    p.op_series_pct;
  Printf.printf "full tracing:   %8.2f ms  (%+.1f %%, %d events, binary)\n"
    p.op_trace_ms p.op_trace_pct p.op_events_traced

let write_obs_json file (p : obs_profile) =
  let oc = open_out file in
  Printf.fprintf oc
    "{\n  \"scenario\": \"fig4-two-way-100s\",\n\
    \  \"off_ms\": %.2f,\n  \"metrics_ms\": %.2f,\n\
    \  \"flowstats_ms\": %.2f,\n  \"series_ms\": %.2f,\n\
    \  \"trace_ms\": %.2f,\n\
    \  \"metrics_overhead_pct\": %.1f,\n\
    \  \"flowstats_overhead_pct\": %.1f,\n\
    \  \"series_overhead_pct\": %.1f,\n\
    \  \"trace_overhead_pct\": %.1f,\n\
    \  \"events_traced\": %d\n}\n"
    p.op_off_ms p.op_metrics_ms p.op_flowstats_ms p.op_series_ms p.op_trace_ms
    p.op_metrics_pct p.op_flowstats_pct p.op_series_pct p.op_trace_pct
    p.op_events_traced;
  close_out oc;
  Printf.printf "wrote %s\n" file

let run_obs ~json () =
  banner "OBSERVABILITY OVERHEAD: lib/obs probe off / metrics / tracing";
  let p = measure_obs () in
  print_obs_profile p;
  if json then write_obs_json "BENCH_obs.json" p;
  0

let run_obs_check baseline_file =
  banner "OBSERVABILITY OVERHEAD: check against committed baseline";
  let base_metrics = json_number_field baseline_file "metrics_overhead_pct" in
  let base_flowstats =
    json_number_field baseline_file "flowstats_overhead_pct"
  in
  let base_trace = json_number_field baseline_file "trace_overhead_pct" in
  let p = measure_obs () in
  print_obs_profile p;
  write_obs_json "BENCH_obs.current.json" p;
  let check ?cap name measured base =
    (* 25% of the baseline plus 25 percentage points: the relative part
       scales with noisy baselines, the absolute part keeps near-zero
       baselines checkable.  [cap] additionally pins an absolute ceiling
       regardless of what was committed. *)
    let band = (base *. 1.25) +. 25. in
    let limit = match cap with Some c -> Float.min band c | None -> band in
    let ok = measured <= limit in
    Printf.printf "%-24s %+9.1f %%  (baseline %+.1f, limit %+.1f)  %s\n" name
      measured base limit
      (if ok then "ok" else "REGRESSION");
    ok
  in
  let metrics_ok = check "metrics overhead" p.op_metrics_pct base_metrics in
  let flowstats_ok =
    check "flowstats overhead" p.op_flowstats_pct base_flowstats
  in
  (* Same-run ratio: flowstats vs the metrics-only best of this very
     process, so machine speed and baseline drift cancel out. *)
  let ratio = p.op_flowstats_ms /. p.op_metrics_ms in
  let ratio_ok = ratio <= flowstats_vs_metrics_limit in
  Printf.printf "%-24s %9.3fx  (limit %.2fx of metrics-only)  %s\n"
    "flowstats/metrics" ratio flowstats_vs_metrics_limit
    (if ratio_ok then "ok" else "REGRESSION");
  let trace_ok =
    check ~cap:trace_overhead_limit_pct "trace overhead" p.op_trace_pct
      base_trace
  in
  if metrics_ok && flowstats_ok && ratio_ok && trace_ok then 0 else 1

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let t0 = Sys.time () in
  let exit_code =
    match args with
    | [ "micro" ] ->
      run_micro ~json:false ();
      0
    | [ "micro"; "--json" ] ->
      run_micro ~json:true ();
      0
    | [ "sweep" ] -> run_sweep_bench ()
    | [ "sweep"; "--check"; baseline ] -> run_sweep_check baseline
    | [ "engine" ] -> run_engine ~json:false ()
    | [ "engine"; "--json" ] -> run_engine ~json:true ()
    | [ "engine"; "--check"; baseline ] -> run_engine_check baseline
    | [ "trace" ] -> run_trace ~json:false ()
    | [ "trace"; "--json" ] -> run_trace ~json:true ()
    | [ "trace"; "--check"; baseline ] -> run_trace_check baseline
    | [ "obs" ] -> run_obs ~json:false ()
    | [ "obs"; "--json" ] -> run_obs ~json:true ()
    | [ "obs"; "--check"; baseline ] -> run_obs_check baseline
    | [ "gallery" ] ->
      run_gallery ();
      0
    | [ "overhead" ] ->
      run_overhead ();
      0
    | [ "faults-overhead" ] ->
      run_faults_overhead ();
      0
    | [ "cc" ] -> run_cc_bench ()
    | [] ->
      run_gallery ();
      run_micro ~json:false ();
      0
    | _ ->
      prerr_endline
        ("unknown arguments: " ^ String.concat " " args
       ^ " (experiments are `netsim experiment`)");
      exit 2
  in
  Printf.printf "total cpu time: %.1fs\n" (Sys.time () -. t0);
  exit exit_code
