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

(* A check against [base key] scaled by [scale], plus [slack], at most
   [cap]. *)
let band ?(slack = 0.) ?(cap = infinity) ~scale base name key value =
  let b = base key in
  { name; value; base = Some b; limit = Float.min cap ((b *. scale) +. slack) }

let str s = fmt "\"%s\"" (Obs.Json.escape s)

(* Best wall-clock seconds of [reps] calls of [f]. *)
let best_of reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let events_of (r : Core.Runner.result) =
  Engine.Sim.events_run (Net.Network.sim r.dumbbell.Net.Topology.net)

(* engine: the event hot path on a 100 sim-second fig-4-style two-way
   run.  Wall time per event (best of 5) and minor-heap words per event
   (a single Gc.minor_words delta — allocation is deterministic, so one
   run suffices).  Wall time is noisy on shared CI runners and
   allocation is exact; the same 25% band covers both, since a stray
   per-event closure moves words/event far more than 25%. *)

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
  let ns = 1e9 *. best_of 5 run /. float_of_int events in
  let words = words /. float_of_int events in
  {
    fields =
      [
        ("scenario", str "fig4-two-way-100s");
        ("events", string_of_int events);
        ("ns_per_event", fmt "%.1f" ns);
        ("minor_words_per_event", fmt "%.3f" words);
      ];
    checks =
      Option.fold ~none:[] ~some:(fun base ->
          [ band ~scale:1.25 base "ns/event" "ns_per_event" ns;
            band ~scale:1.25 base "minor words/event" "minor_words_per_event"
              words ]);
  }

(* trace: memory cost of the lib/trace recorders Runner.run attaches to
   every run, on fig-3's 5+5 two-way connections over 600 sim-seconds
   (about 180k events), as two deterministic allocation counts per
   event: the heap the held Runner.result reaches after a full major GC
   (the recorders' storage dominates it), and the minor words of one
   whole run (the hot path including the recorder hooks).  Counts do not
   drift, so the 10% band only has to absorb compiler and stdlib
   differences between CI legs. *)

let trace_scenario () =
  Core.Scenario.make ~name:"trace-bench" ~tau:0.01 ~buffer:(Some 20)
    ~conns:
      (Core.Scenario.stagger ~step:0.7
         (List.init 10 (fun i ->
              Core.Scenario.conn
                (if i < 5 then Core.Scenario.Forward
                 else Core.Scenario.Reverse))))
    ~duration:600. ~warmup:200. ()

let trace () =
  let scenario = trace_scenario () in
  ignore (Core.Runner.run scenario : Core.Runner.result);
  let w0 = Gc.minor_words () in
  let r = Core.Runner.run scenario in
  let words = Gc.minor_words () -. w0 in
  Gc.full_major ();
  let retained = Obj.reachable_words (Obj.repr r) * (Sys.word_size / 8) in
  let events = events_of r in
  let bytes = float_of_int retained /. float_of_int events in
  let words = words /. float_of_int events in
  {
    fields =
      [
        ("scenario", str "fig3-5+5-600s");
        ("events", string_of_int events);
        ("retained_bytes_per_event", fmt "%.3f" bytes);
        ("minor_words_per_event", fmt "%.3f" words);
      ];
    checks =
      Option.fold ~none:[] ~some:(fun base ->
          [ band ~scale:1.10 base "retained bytes/event"
              "retained_bytes_per_event" bytes;
            band ~scale:1.10 base "minor words/event" "minor_words_per_event"
              words ]);
  }

(* obs: cost of the lib/obs probe on the engine run, in five
   configurations: off (Probe.disabled, no hooks at all); metrics
   (gauges over the model's own counters, plus the queue-length
   histogram's bucket scan on each enqueue); flowstats (metrics plus the
   per-flow registry of --flowstats-out); series (metrics plus the 1 Hz
   recorder of --metrics-out); trace (the --trace-out Btrace writer, no
   flight ring, into a sink that drops the bytes, so the number measures
   encoding, not disk).

   Timed part.  Every rep runs in its own child, forked from the same
   parent state: it warms twice, times one run and reports the time over
   a pipe.  Reps in one process let the minor-GC phase, which each rep
   inherits from the last, decide a 4 ms run's time.  The five configs
   run once per round, the order rotating over [rounds] rounds; each
   [*_ms] field is a config's median over rounds, and each overhead (and
   the flowstats/metrics ratio) the median over rounds of that round's
   own ratio, so a load spike costs one round, not a config.  The
   metrics, flowstats and trace overhead percentages are gated at 125%
   of the baseline plus 25 points: the relative part scales with noisy
   baselines, the absolute part keeps near-zero baselines checkable.  Two
   caps hold whatever the baseline says: a fully traced run stays under
   2x the untraced one, and flowstats under 1.10x the metrics-only run.

   Exact part.  Flowstats' extra minor words per event over metrics,
   counted in this process, gated within 10% of the baseline as the
   trace gate gates words: a boxed float per flowstats hook fails it on
   every run, where a timing cannot. *)

let trace_overhead_limit_pct = 100.
let flowstats_vs_metrics_limit = 1.10
let rounds = 45

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
    | _ -> failwith "obs: a timed child failed or reported no time")

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

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
  let n = Array.length configs in
  let secs = Array.make_matrix rounds n 0. in
  for r = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (r + k) mod n in
      secs.(r).(i) <- time_in_child (run configs.(i))
    done
  done;
  let over_rounds f = median (List.init rounds f) in
  let ms i = 1000. *. over_rounds (fun r -> secs.(r).(i)) in
  let pct i =
    100. *. over_rounds (fun r -> (secs.(r).(i) /. secs.(r).(0)) -. 1.)
  in
  let ratio = over_rounds (fun r -> secs.(r).(2) /. secs.(r).(1)) in
  (* Minor words of one run after a warm-up run of the same config. *)
  let words obs =
    run obs ();
    let w0 = Gc.minor_words () in
    let r = Core.Runner.run ~obs:(obs ()) scenario in
    (Gc.minor_words () -. w0) /. float_of_int (events_of r)
  in
  let extra_words = words configs.(2) -. words configs.(1) in
  let events_traced =
    let r = Core.Runner.run ~obs:(trace_setup ()) scenario in
    match r.Core.Runner.obs with
    | Some probe -> Obs.Probe.events_traced probe
    | None -> 0
  in
  let names = [ "off"; "metrics"; "flowstats"; "series"; "trace" ] in
  {
    fields =
      [ ("scenario", str "fig4-two-way-100s");
        ("rounds", string_of_int rounds) ]
      @ List.mapi (fun i n -> (n ^ "_ms", fmt "%.2f" (ms i))) names
      @ List.mapi
          (fun i n -> (n ^ "_overhead_pct", fmt "%.1f" (pct (i + 1))))
          (List.tl names)
      @ [ ("flowstats_vs_metrics", fmt "%.3f" ratio);
          ("flowstats_extra_words_per_event", fmt "%.3f" extra_words);
          ("events_traced", string_of_int events_traced) ];
    checks =
      Option.fold ~none:[] ~some:(fun base ->
          let overhead ?cap i =
            let n = List.nth names i in
            band ~slack:25. ?cap ~scale:1.25 base (n ^ " overhead %")
              (n ^ "_overhead_pct") (pct i)
          in
          [ overhead 1;
            overhead 2;
            { name = "flowstats/metrics"; value = ratio; base = None;
              limit = flowstats_vs_metrics_limit };
            band ~scale:1.10 base "flowstats extra words/event"
              "flowstats_extra_words_per_event" extra_words;
            overhead ~cap:trace_overhead_limit_pct 4 ]);
  }

(* sweep: the full Fig-8 buffer grid through Sweep.Driver under the
   fork executor at jobs 2 and 4, the number of those runs whose JSON
   differs from the sequential run's (nonzero fails the gate in every
   mode), and the in-process and fork per-point dispatch costs on
   trivial tasks.  The in-process dispatch cost and the jobs=1 wall
   clock are what a code change moves on any machine, so those two are
   gated (25% band); the multi-job rows also depend on the core count,
   so they are recorded, with [cores_available] and [parallel_ok], but
   not gated. *)

let sweep_grid = Sweep.Grids.fig8

let sweep () =
  let points = sweep_grid.points () in
  let reps = 3 in
  let run backend jobs =
    Sweep_pool.map ~backend ~jobs (fun p -> Sweep.Driver.run_point p) points
  in
  let time backend jobs =
    ignore (run backend jobs : Sweep.Summary.t list);
    best_of reps (fun () -> run backend jobs)
  in
  let json backend jobs = Sweep.Driver.to_json (run backend jobs) in
  (* Raw dispatch: trivial tasks make the per-point overhead visible.
     Fork pays one Marshal value, a socket write, a zero-timeout select
     and a trip through the parent's select loop per point. *)
  let tasks = List.init 512 (fun i -> i) in
  let dispatch backend jobs =
    let map () = Sweep_pool.map ~backend ~jobs (fun x -> x) tasks in
    ignore (map () : int list);
    1e6 *. best_of reps map /. float_of_int (List.length tasks)
  in
  let jobs1 = time Sweep_pool.Seq 1 in
  let reference = json Sweep_pool.Seq 1 in
  let inprocess_us = dispatch Sweep_pool.Seq 1 in
  (* Fork at jobs 2 and 4: its timings, and how many of its outputs
     differ from the reference. *)
  let jobs = [ 2; 4 ] in
  let runs = List.map (fun j -> (j, time Sweep_pool.Fork j)) jobs in
  let differing =
    List.length (List.filter (fun j -> json Sweep_pool.Fork j <> reference) jobs)
  in
  let fork_us = dispatch Sweep_pool.Fork 2 in
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
  let run_row (j, t) =
    fmt
      "    {\"backend\": \"fork\", \"jobs\": %d, \"seconds\": %.4f, \
       \"speedup\": %.3f}"
      j t (jobs1 /. t)
  in
  {
    fields =
      [
        ("grid", str sweep_grid.name);
        ("cores", string_of_int (Sweep_pool.cores ()));
        ("cores_available", string_of_int cores);
        ("parallel_ok", string_of_bool (cores >= 2));
        ("points", string_of_int (List.length points));
        ("reps", string_of_int reps);
      ]
      @ note
      @ [
          ("jobs1_seconds", fmt "%.4f" jobs1);
          ( "runs",
            fmt "[\n%s\n  ]" (String.concat ",\n" (List.map run_row runs)) );
          ("inprocess_dispatch_us_per_point", fmt "%.4f" inprocess_us);
          ("fork_dispatch_us_per_point", fmt "%.3f" fork_us);
          ("byte_identical", string_of_bool (differing = 0));
        ];
    checks =
      (fun base ->
        { name = "outputs differing from seq"; value = float_of_int differing;
          base = None; limit = 0. }
        :: Option.fold ~none:[] base ~some:(fun base ->
               [ band ~scale:1.25 base "in-process dispatch us/pt"
                   "inprocess_dispatch_us_per_point" inprocess_us;
                 band ~scale:1.25 base "jobs=1 wall seconds" "jobs1_seconds"
                   jobs1 ]));
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
