(* bench/main.exe — the regression gates CI runs, each against its
   committed BENCH_<gate>.json baseline.  The paper's figures are
   `netsim plot`, its tables `netsim experiment`, and the per-layer cost
   ledger `bench/e2e/main.exe --trace`.

     dune exec bench/main.exe -- GATE               measure and print
     dune exec bench/main.exe -- GATE --json        ... write BENCH_GATE.json
     dune exec bench/main.exe -- GATE --check FILE  ... write
         BENCH_GATE.current.json; exit 1 if a value passes its limit

   GATE is engine, trace, obs or sweep; each is described above its
   measuring function below. *)

let fmt = Printf.sprintf

(* [value] passes when it is at most [limit], which [--check] derives
   from the baseline value [base] where there is one. *)
type check = {
  name : string;
  value : float;
  base : float option;
  limit : float;
}

(* What a gate measured: the fields of its BENCH file in file order, each
   rendered as JSON, and its checks given the baseline lookup ([None]
   outside [--check]). *)
type profile = {
  fields : (string * string) list;
  checks : (string -> float) option -> check list;
}

(* A check against [base key] scaled by [scale], plus [slack]. *)
let band ?(slack = 0.) ~scale base name key value =
  let b = base key in
  { name; value; base = Some b; limit = (b *. scale) +. slack }

let str s = fmt "\"%s\"" (Obs.Json.escape s)

(* Timed rows.  Every timed rep runs in its own child, forked from the
   same parent state: it warms twice, times one run and reports the time
   over a pipe.  Reps in one process let the minor-GC phase, which each
   rep inherits from the last, decide a short run's time.  A gate's reps
   run once per round, the order rotating over the rounds, so a load
   spike costs one round, not a rep, and each row is a median over
   rounds.

   Raw wall times measure the runner as much as the code: on unchanged
   code the engine row read 108.7 to 295.2 ns/event across machines.  So
   the engine and sweep gates time [kernel], fixed work no netsim change
   can touch, among their reps, and a row is the median over rounds of
   the rep's time over the kernel's in that round, scaled to a machine
   on which the kernel takes [kernel_nominal] seconds; the raw median is
   recorded beside it.  A machine that runs everything slower for a
   while moves both reps of a round. *)

(* Wall seconds of one [run ()] after two warm-up runs, in a forked
   child that reports them over a pipe and leaves with [Unix._exit], so
   it never returns into this process or flushes its buffered output. *)
let time_in_child run =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    Unix._exit
      (match
         run ();
         run ();
         let t0 = Unix.gettimeofday () in
         run ();
         fmt "%h" (Unix.gettimeofday () -. t0)
       with
       | msg -> ignore (Unix.write_substring wr msg 0 (String.length msg)); 0
       | exception _ -> 1)
  | pid -> (
    Unix.close wr;
    (* One write of a few bytes to a pipe arrives whole. *)
    let buf = Bytes.create 64 in
    let msg = Bytes.sub_string buf 0 (Unix.read rd buf 0 64) in
    Unix.close rd;
    match (snd (Unix.waitpid [] pid), float_of_string_opt msg) with
    | Unix.WEXITED 0, Some seconds -> seconds
    | _ -> failwith "a timed child failed or reported no time")

(* [secs.(r).(i)]: rep [i]'s seconds in round [r], each rep once per
   round, in an order that rotates over the rounds. *)
let time_rounds ~rounds reps =
  let reps = Array.of_list reps in
  let n = Array.length reps in
  let secs = Array.make_matrix rounds n 0. in
  for r = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (r + k) mod n in
      secs.(r).(i) <- time_in_child reps.(i)
    done
  done;
  secs

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let kernel_rounds = 21
let kernel_nominal = 0.01

(* Small allocations, hashing, list walks and float arithmetic, as in
   bench/e2e's scaling kernel; about 10 ms here. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0. in
  for i = 0 to 40_000 do
    let k = (i * 7919) land 4095 in
    let l = Option.value (Hashtbl.find_opt h k) ~default:[] in
    Hashtbl.replace h k
      ((float_of_int i *. 1.0001) :: (if List.length l > 8 then [] else l));
    acc := !acc +. float_of_int k
  done;
  ignore (Sys.opaque_identity !acc : float)

(* A row timed against the kernel: its scaled and raw medians in
   seconds. *)
type timing = { scaled : float; raw : float }

(* Rep [i]'s timing from rounds whose rep 0 is [kernel]. *)
let timing secs i =
  let over_rounds f = median (List.init (Array.length secs) f) in
  { scaled =
      kernel_nominal *. over_rounds (fun r -> secs.(r).(i) /. secs.(r).(0));
    raw = over_rounds (fun r -> secs.(r).(i)) }

(* Time [reps] with [kernel] over [kernel_rounds] rounds: each rep's
   timing, and the kernel's median seconds. *)
let time_scaled reps =
  let secs = time_rounds ~rounds:kernel_rounds (kernel :: reps) in
  ( List.mapi (fun i _ -> timing secs (i + 1)) reps,
    median (List.init kernel_rounds (fun r -> secs.(r).(0))) )

let events_of (r : Core.Runner.result) =
  Engine.Sim.events_run (Net.Network.sim r.dumbbell.Net.Topology.net)

(* engine: the event hot path on a 100 sim-second fig-4-style two-way
   run.  Wall time per event, timed against the kernel as above, and
   minor-heap words per event (a single Gc.minor_words delta in this
   process: allocation is deterministic, so one run suffices).  The
   same 25% band covers both, since a stray per-event closure moves
   words/event far more than 25%. *)

let engine_scenario () =
  Core.Scenario.make ~name:"engine-bench" ~tau:0.01 ~buffer:(Some 20)
    ~conns:
      [ Core.Scenario.conn Core.Scenario.Forward;
        Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse ]
    ~duration:100. ~warmup:1. ()

let engine () =
  let scenario = engine_scenario () in
  let run () = Core.Runner.run scenario in
  let r = run () in  (* warm caches and the minor heap *)
  let events = events_of r in
  let w0 = Gc.minor_words () in
  ignore (run () : Core.Runner.result);
  let words = Gc.minor_words () -. w0 in
  let times, kernel_s =
    time_scaled [ (fun () -> ignore (run () : Core.Runner.result)) ]
  in
  let ns seconds = 1e9 *. seconds /. float_of_int events in
  let ns_raw = ns (List.hd times).raw and ns = ns (List.hd times).scaled in
  let words = words /. float_of_int events in
  {
    fields =
      [
        ("scenario", str "fig4-two-way-100s");
        ("events", string_of_int events);
        ("rounds", string_of_int kernel_rounds);
        ("ns_per_event", fmt "%.1f" ns);
        ("ns_per_event_raw", fmt "%.1f" ns_raw);
        ("kernel_ms", fmt "%.2f" (1000. *. kernel_s));
        ("minor_words_per_event", fmt "%.3f" words);
      ];
    checks =
      Option.fold ~none:[] ~some:(fun base ->
          [ band ~scale:1.25 base "ns/event" "ns_per_event" ns;
            band ~scale:1.25 base "minor words/event" "minor_words_per_event"
              words ]);
  }

(* trace: memory cost of the lib/trace recorders on fig-3's 5+5 two-way
   connections over 600 sim-seconds (about 180k events), as two
   deterministic allocation counts per event: the heap the held
   Runner.result reaches after a full major GC (the recorders' storage
   dominates it), and the minor words of one whole run (the hot path
   including the recorder hooks).  The plain rows measure what every run
   records; the [logs_] rows the same run keeping both logs, so a
   regression in either log's recorder fails too.  Counts do not drift,
   so the 10% band only has to absorb compiler and stdlib differences
   between CI legs. *)

let trace_scenario () =
  Core.Scenario.make ~name:"trace-bench" ~tau:0.01 ~buffer:(Some 20)
    ~conns:
      (Core.Scenario.stagger ~step:0.7
         (List.init 10 (fun i ->
              Core.Scenario.conn
                (if i < 5 then Core.Scenario.Forward
                 else Core.Scenario.Reverse))))
    ~duration:600. ~warmup:200. ()

(* Retained bytes and minor words per event of one run after a warm-up
   run, and its event count. *)
let recorder_counts run =
  ignore (run () : Core.Runner.result);
  let w0 = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. w0 in
  Gc.full_major ();
  let retained = Obj.reachable_words (Obj.repr r) * (Sys.word_size / 8) in
  let events = events_of r in
  ( float_of_int retained /. float_of_int events,
    words /. float_of_int events,
    events )

let trace () =
  let scenario = trace_scenario () in
  let bytes, words, events =
    recorder_counts (fun () -> Core.Runner.run scenario)
  in
  let logs_bytes, logs_words, _ =
    recorder_counts (fun () ->
        Core.Runner.run ~logs:[ Cwnd; Departures ] scenario)
  in
  {
    fields =
      [
        ("scenario", str "fig3-5+5-600s");
        ("events", string_of_int events);
        ("retained_bytes_per_event", fmt "%.3f" bytes);
        ("minor_words_per_event", fmt "%.3f" words);
        ("logs_retained_bytes_per_event", fmt "%.3f" logs_bytes);
        ("logs_minor_words_per_event", fmt "%.3f" logs_words);
      ];
    checks =
      Option.fold ~none:[] ~some:(fun base ->
          [ band ~scale:1.10 base "retained bytes/event"
              "retained_bytes_per_event" bytes;
            band ~scale:1.10 base "minor words/event" "minor_words_per_event"
              words;
            band ~scale:1.10 base "logs retained bytes/event"
              "logs_retained_bytes_per_event" logs_bytes;
            band ~scale:1.10 base "logs minor words/event"
              "logs_minor_words_per_event" logs_words ]);
  }

(* obs: cost of the lib/obs probe on the engine run, in five
   configurations: off (Probe.disabled, no hooks at all); metrics
   (gauges over the model's own counters, plus the queue-length
   histogram's bucket scan on each enqueue); flowstats (metrics plus the
   per-flow registry of --flowstats-out); series (metrics plus the 1 Hz
   recorder of --metrics-out); trace (the --trace-out Btrace writer, no
   flight recorder, into a sink that drops the bytes, so the number measures
   encoding, not disk).

   Timed part.  The kernel and the five configs are the reps of [rounds]
   rounds, each in its own child, as above; each [*_ms] field is a
   config's median over rounds, and each overhead (and the
   flowstats/metrics ratio) the median over rounds of that round's own
   ratio to the off run.  The metrics and flowstats overhead percentages
   are gated at 125% of the baseline plus 25 points: the relative part
   scales with noisy baselines, the absolute part keeps near-zero
   baselines checkable.  The trace config is gated on its own time per
   event, scaled by the kernel as the engine gate's is (125% of the
   baseline, raw median beside it): an overhead ratio also rises when
   only the untraced run gets faster.  Two caps hold whatever the
   baseline says: a fully traced run stays under 2x the untraced one,
   and flowstats under 1.10x the metrics-only run.

   Exact part.  Flowstats' extra minor words per event over metrics,
   counted in this process, gated within 10% of the baseline as the
   trace gate gates words: a boxed float per flowstats hook fails it on
   every run, where a timing cannot.  Both counted runs keep the Cwnd
   log: once anything listens, a sender boxes cwnd and ssthresh on every
   fire, and with flowstats as the only listener the row would count
   those 4 words per fire (0.325 words/event), the sender's cost rather
   than flowstats' own. *)

let trace_overhead_limit_pct = 100.
let flowstats_vs_metrics_limit = 1.10
let rounds = 45

let obs () =
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
  let run obs () =
    ignore (Core.Runner.run ~obs:(obs ()) scenario : Core.Runner.result)
  in
  (* Config [i] is rep [i + 1]: rep 0 is the kernel. *)
  let secs =
    time_rounds ~rounds (kernel :: List.map run (Array.to_list configs))
  in
  let over_rounds f = median (List.init rounds f) in
  let ms i = 1000. *. over_rounds (fun r -> secs.(r).(i + 1)) in
  let pct i =
    100. *. over_rounds (fun r -> (secs.(r).(i + 1) /. secs.(r).(1)) -. 1.)
  in
  let ratio = over_rounds (fun r -> secs.(r).(3) /. secs.(r).(2)) in
  (* Minor words of one run after a warm-up run of the same config. *)
  let words obs =
    let run () = Core.Runner.run ~logs:[ Cwnd ] ~obs:(obs ()) scenario in
    ignore (run () : Core.Runner.result);
    let w0 = Gc.minor_words () in
    let r = run () in
    (Gc.minor_words () -. w0) /. float_of_int (events_of r)
  in
  let extra_words = words configs.(2) -. words configs.(1) in
  let events, events_traced =
    let r = Core.Runner.run ~obs:(trace_setup ()) scenario in
    ( events_of r,
      match r.Core.Runner.obs with
      | Some probe -> Obs.Probe.events_traced probe
      | None -> 0 )
  in
  let traced = timing secs (1 + 4) in
  let ns seconds = 1e9 *. seconds /. float_of_int events in
  let names = [ "off"; "metrics"; "flowstats"; "series"; "trace" ] in
  {
    fields =
      [ ("scenario", str "fig4-two-way-100s");
        ("rounds", string_of_int rounds) ]
      @ List.mapi (fun i n -> (n ^ "_ms", fmt "%.2f" (ms i))) names
      @ List.mapi
          (fun i n -> (n ^ "_overhead_pct", fmt "%.1f" (pct (i + 1))))
          (List.tl names)
      @ [ ("trace_ns_per_event", fmt "%.1f" (ns traced.scaled));
          ("trace_ns_per_event_raw", fmt "%.1f" (ns traced.raw));
          ("flowstats_vs_metrics", fmt "%.3f" ratio);
          ("flowstats_extra_words_per_event", fmt "%.3f" extra_words);
          ("events_traced", string_of_int events_traced) ];
    checks =
      Option.fold ~none:[] ~some:(fun base ->
          let overhead i =
            let n = List.nth names i in
            band ~slack:25. ~scale:1.25 base (n ^ " overhead %")
              (n ^ "_overhead_pct") (pct i)
          in
          [ overhead 1;
            overhead 2;
            { name = "flowstats/metrics"; value = ratio; base = None;
              limit = flowstats_vs_metrics_limit };
            band ~scale:1.10 base "flowstats extra words/event"
              "flowstats_extra_words_per_event" extra_words;
            band ~scale:1.25 base "trace ns/event" "trace_ns_per_event"
              (ns traced.scaled);
            { name = "trace overhead %"; value = pct 4; base = None;
              limit = trace_overhead_limit_pct } ]);
  }

(* sweep: the full Fig-8 buffer grid through Sweep.Driver in process
   (jobs = 1) and under the fork executor at jobs 2 and 4, the number of
   those fork runs whose JSON differs from the sequential run's (nonzero
   fails the gate in every mode), and the in-process and fork per-point
   dispatch costs on trivial tasks.  The in-process dispatch cost and
   the jobs=1 wall clock are what a code change moves on any machine, so
   those two are gated (25% band); the fork rows also depend on the core
   count, so they are recorded, with [cores_available] and
   [parallel_ok], but not gated.

   Every row is timed against the kernel as above, the five reps and the
   kernel in one set of rounds.  The in-process dispatch rep is
   [dispatch_maps] maps of 128 trivial tasks, some 6 ms, since one map
   of 512 (20 us) timed the runner, not the pool; the fork dispatch rep
   is one map of 512 at jobs 2. *)

let sweep_grid = Sweep.Grids.fig8
let dispatch_tasks = List.init 128 Fun.id
let dispatch_maps = 1024
let fork_dispatch_tasks = List.init 512 Fun.id

let sweep () =
  let points = sweep_grid.points () in
  let run backend jobs () =
    Sweep_pool.map ~backend ~jobs (fun p -> Sweep.Driver.run_point p) points
  in
  let json backend jobs = Sweep.Driver.to_json (run backend jobs ()) in
  (* Raw dispatch: trivial tasks make the per-point overhead visible.
     Fork pays one Marshal value, a socket write, a zero-timeout select
     and a trip through the parent's select loop per point. *)
  let map backend jobs tasks () =
    ignore (Sweep_pool.map ~backend ~jobs (fun x -> x) tasks : int list)
  in
  let dispatch () =
    for _ = 1 to dispatch_maps do
      map Sweep_pool.Seq 1 dispatch_tasks ()
    done
  in
  let sweep_rep backend jobs () =
    ignore (run backend jobs () : Sweep.Summary.t list)
  in
  let jobs = [ 2; 4 ] in
  let times, kernel_s =
    time_scaled
      (dispatch :: sweep_rep Sweep_pool.Seq 1
       :: map Sweep_pool.Fork 2 fork_dispatch_tasks
       :: List.map (sweep_rep Sweep_pool.Fork) jobs)
  in
  let inprocess, jobs1, fork_dispatch, forks =
    match times with
    | d :: j1 :: fd :: forks -> (d, j1, fd, forks)
    | _ -> assert false (* one timing per rep *)
  in
  let per_point tasks seconds = 1e6 *. seconds /. float_of_int tasks in
  let inprocess_us = per_point (dispatch_maps * List.length dispatch_tasks) in
  let fork_us = per_point (List.length fork_dispatch_tasks) in
  let reference = json Sweep_pool.Seq 1 in
  let differing =
    List.length (List.filter (fun j -> json Sweep_pool.Fork j <> reference) jobs)
  in
  let cores = Sweep_pool.available_cores () in
  (* Speedup rows above the usable core count measure scheduling
     overhead, not parallelism; say so next to them rather than leaving
     a puzzling sub-1x figure in the report. *)
  let max_jobs = List.fold_left max 1 jobs in
  let note =
    if max_jobs <= cores then []
    else
      [ ("note",
         str (fmt "job counts up to %d exceed the %d usable core(s); speedups \
                   beyond jobs=%d measure scheduling overhead, not parallelism"
                max_jobs cores cores)) ]
  in
  let run_row j t =
    fmt
      "    {\"backend\": \"fork\", \"jobs\": %d, \"seconds\": %.4f, \
       \"speedup\": %.3f}"
      j t.scaled (jobs1.scaled /. t.scaled)
  in
  {
    fields =
      [
        ("grid", str sweep_grid.name);
        ("cores", string_of_int (Sweep_pool.cores ()));
        ("cores_available", string_of_int cores);
        ("parallel_ok", string_of_bool (cores >= 2));
        ("points", string_of_int (List.length points));
        ("rounds", string_of_int kernel_rounds);
      ]
      @ note
      @ [
          ("jobs1_seconds", fmt "%.4f" jobs1.scaled);
          ("jobs1_raw_seconds", fmt "%.4f" jobs1.raw);
          ( "runs",
            fmt "[\n%s\n  ]"
              (String.concat ",\n" (List.map2 run_row jobs forks)) );
          ( "inprocess_dispatch_us_per_point",
            fmt "%.4f" (inprocess_us inprocess.scaled) );
          ( "inprocess_dispatch_raw_us_per_point",
            fmt "%.4f" (inprocess_us inprocess.raw) );
          ("kernel_ms", fmt "%.2f" (1000. *. kernel_s));
          ("fork_dispatch_us_per_point", fmt "%.3f" (fork_us fork_dispatch.scaled));
          ("byte_identical", string_of_bool (differing = 0));
        ];
    checks =
      (fun base ->
        { name = "outputs differing from seq"; value = float_of_int differing;
          base = None; limit = 0. }
        :: Option.fold ~none:[] base ~some:(fun base ->
               [ band ~scale:1.25 base "in-process dispatch us/pt"
                   "inprocess_dispatch_us_per_point"
                   (inprocess_us inprocess.scaled);
                 band ~scale:1.25 base "jobs=1 wall seconds" "jobs1_seconds"
                   jobs1.scaled ]));
  }

let gates =
  [ ("engine", ("ENGINE HOT PATH: ns and minor words / event", engine));
    ("trace", ("RECORDER STORAGE: retained bytes, minor words / event", trace));
    ("obs", ("OBSERVABILITY OVERHEAD: lib/obs probe configurations", obs));
    ("sweep", ("SWEEP POOL: fig8 grid through the pool executors", sweep)) ]

let baseline file =
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.parse text with
  | Error msg -> failwith (fmt "%s: %s" file msg)
  | Ok json -> (
    fun key ->
      match Option.bind (Obs.Json.member key json) Obs.Json.to_float with
      | Some v -> v
      | None -> failwith (fmt "%s: no number %S" file key))

let write file fields =
  let oc = open_out file in
  output_string oc "{\n";
  output_string oc
    (String.concat ",\n"
       (List.map (fun (k, v) -> fmt "  \"%s\": %s" k v) fields));
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" file

let print_check c =
  let ok = c.value <= c.limit in
  Printf.printf "%-28s %10.4f  (%slimit %.4f)  %s\n" c.name c.value
    (Option.fold ~none:"" ~some:(fmt "baseline %.4f, ") c.base)
    c.limit
    (if ok then "ok" else "REGRESSION");
  ok

(* Measure and print; write BENCH_<name><suffix>.json when [out] is
   [Some suffix]; check.  Returns the exit code: 1 if a check fails. *)
let run name ~out ~base =
  let title, measure = List.assoc name gates in
  let rule = String.make 74 '=' in
  Printf.printf "\n%s\n== %s\n%s\n" rule title rule;
  let p = measure () in
  List.iter (fun (k, v) -> Printf.printf "%-32s %s\n" k v) p.fields;
  Option.iter
    (fun suffix -> write (fmt "BENCH_%s%s.json" name suffix) p.fields)
    out;
  let oks = List.map print_check (p.checks base) in
  if List.for_all Fun.id oks then 0 else 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ name ] when List.mem_assoc name gates ->
    exit (run name ~out:None ~base:None)
  | [ name; "--json" ] when List.mem_assoc name gates ->
    exit (run name ~out:(Some "") ~base:None)
  | [ name; "--check"; file ] when List.mem_assoc name gates ->
    let base = baseline file in
    exit (run name ~out:(Some ".current") ~base:(Some base))
  | _ ->
    prerr_endline
      "usage: bench/main.exe (engine|trace|obs|sweep) [--json | --check FILE]";
    exit 2
