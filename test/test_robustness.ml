(* Robustness layer: run watchdogs ([Sim.run_guarded] budgets and stop
   requests, surfaced through [Runner.run]), crash bundles (write / load
   / deterministic replay), and the flush-and-close guarantee for trace
   sinks.  The sweep pool's dead-worker test lives in test_sweep.ml. *)

(* Schedule [count] events, each scheduling the next — a cascade long
   enough to cross several 1024-event guard windows. *)
let cascade sim ~dt ~count =
  let n = ref 0 in
  let rec step () =
    incr n;
    if !n < count then
      ignore (Engine.Sim.schedule sim ~delay:dt step : Engine.Sim.handle)
  in
  ignore (Engine.Sim.schedule sim ~delay:dt step : Engine.Sim.handle)

let stop_reason =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (Engine.Sim.stop_reason_to_string r))
    (fun a b -> a = b)

(* ---------------- Sim.run_guarded ---------------- *)

let test_guarded_completes () =
  let sim = Engine.Sim.create () in
  cascade sim ~dt:0.5 ~count:10;
  Alcotest.check stop_reason "no budget completes" Engine.Sim.Completed
    (Engine.Sim.run_guarded sim ~until:100. ());
  Alcotest.(check int) "all events ran" 10 (Engine.Sim.events_run sim);
  Alcotest.(check (float 0.)) "clock lands on the horizon" 100.
    (Engine.Sim.now sim)

let test_guarded_event_budget_and_resume () =
  let sim = Engine.Sim.create () in
  cascade sim ~dt:0.001 ~count:5000;
  (match Engine.Sim.run_guarded sim ~until:1e9 ~max_events:100 () with
   | Engine.Sim.Event_budget 100 -> ()
   | r ->
     Alcotest.failf "expected Event_budget 100, got %s"
       (Engine.Sim.stop_reason_to_string r));
  Alcotest.(check int) "exactly 100 events executed" 100
    (Engine.Sim.events_run sim);
  Alcotest.(check bool) "clock stays at the last event" true
    (Engine.Sim.now sim < 1e9);
  (* The partial state is resumable: finishing without a budget runs the
     rest of the cascade. *)
  Alcotest.check stop_reason "resume completes" Engine.Sim.Completed
    (Engine.Sim.run_guarded sim ~until:1e9 ());
  Alcotest.(check int) "cascade finished on resume" 5000
    (Engine.Sim.events_run sim)

let test_guarded_wall_budget_cadence () =
  let sim = Engine.Sim.create () in
  cascade sim ~dt:0.001 ~count:3000;
  (* Fake wall clock: +1 ms per reading.  Checks happen at ran = 0,
     1024, 2048, …; with a 1.5 ms budget the first reading (1 ms) passes
     and the second (2 ms) trips, so exactly 1024 events execute. *)
  let t = ref 0. in
  let wall_clock () =
    t := !t +. 0.001;
    !t
  in
  (match
     Engine.Sim.run_guarded sim ~until:1e9 ~max_wall:0.0015 ~wall_clock ()
   with
   | Engine.Sim.Wall_budget _ -> ()
   | r ->
     Alcotest.failf "expected Wall_budget, got %s"
       (Engine.Sim.stop_reason_to_string r));
  Alcotest.(check int) "stopped at the second guard window" 1024
    (Engine.Sim.events_run sim)

let test_guarded_stop_request () =
  let sim = Engine.Sim.create () in
  cascade sim ~dt:0.5 ~count:10;
  Alcotest.check stop_reason "stop honoured before the first event"
    Engine.Sim.Stop_requested
    (Engine.Sim.run_guarded sim ~until:100. ~stop:(fun () -> true) ());
  Alcotest.(check int) "no events executed" 0 (Engine.Sim.events_run sim)

let test_guarded_bad_horizon () =
  let sim = Engine.Sim.create () in
  cascade sim ~dt:1. ~count:3;
  ignore (Engine.Sim.run_guarded sim ~until:10. () : Engine.Sim.stop_reason);
  (match Engine.Sim.run_guarded sim ~until:5. () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "horizon before current time accepted");
  match Engine.Sim.run_guarded sim ~until:Float.nan () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN horizon accepted"

(* The boundaries where a budget, a stop request and the horizon meet. *)
let test_guarded_edges () =
  (* 10 events at 0.5 .. 5.0; a budget of exactly the 8 events at or
     before the horizon 4.0 is not exhausted. *)
  let sim = Engine.Sim.create () in
  cascade sim ~dt:0.5 ~count:10;
  Alcotest.check stop_reason "budget equal to the events due completes"
    Engine.Sim.Completed
    (Engine.Sim.run_guarded sim ~until:4. ~max_events:8 ());
  Alcotest.(check int) "every due event ran" 8 (Engine.Sim.events_run sim);
  Alcotest.(check (float 0.)) "clock on the horizon" 4. (Engine.Sim.now sim);
  (* Nothing is due before the horizon, so the predicate is never asked. *)
  let sim = Engine.Sim.create () in
  cascade sim ~dt:5. ~count:3;
  Alcotest.check stop_reason "always-true stop, nothing due"
    Engine.Sim.Completed
    (Engine.Sim.run_guarded sim ~until:4. ~stop:(fun () -> true) ());
  Alcotest.(check (float 0.)) "clock on the horizon too" 4.
    (Engine.Sim.now sim);
  let sim = Engine.Sim.create () in
  cascade sim ~dt:0. ~count:3;
  Alcotest.check stop_reason "zero budget with an event pending"
    (Engine.Sim.Event_budget 0)
    (Engine.Sim.run_guarded sim ~until:1. ~max_events:0 ());
  Alcotest.(check (float 0.)) "clock still at zero" 0. (Engine.Sim.now sim);
  Alcotest.(check int) "event still queued" 1 (Engine.Sim.queue_length sim);
  (* Polls at 0, 1024 and 2048 events run. *)
  let sim = Engine.Sim.create () in
  cascade sim ~dt:0.001 ~count:5000;
  let calls = ref 0 in
  let stop () =
    incr calls;
    !calls >= 3
  in
  Alcotest.check stop_reason "stop true on its third call"
    Engine.Sim.Stop_requested
    (Engine.Sim.run_guarded sim ~until:1e9 ~stop ());
  Alcotest.(check int) "stopped at the third poll" 2048
    (Engine.Sim.events_run sim)

(* One watchdog case: [chains] interleaved event chains sharing
   [count] events, each delay a multiple of 0.25 s so that timestamps
   (and the horizon) tie exactly.  Returns each event's time. *)
let schedule_chains sim rng ~count ~chains =
  let delays =
    Array.init count (fun _ ->
        0.25 *. float_of_int (Engine.Rng.int rng ~bound:3))
  in
  let times = Array.copy delays in
  for k = chains to count - 1 do
    times.(k) <- times.(k - chains) +. delays.(k)
  done;
  let rec fire k () =
    let next = k + chains in
    if next < count then
      ignore (Engine.Sim.schedule sim ~delay:delays.(next) (fire next)
              : Engine.Sim.handle)
  in
  for k = 0 to min chains count - 1 do
    ignore (Engine.Sim.schedule sim ~delay:delays.(k) (fire k)
            : Engine.Sim.handle)
  done;
  times

(* Everything observable about one guarded run and its resumption. *)
let watchdog_case rng =
  let pick n = Engine.Rng.int rng ~bound:n in
  let sim = Engine.Sim.create () in
  let count = 1 + pick 3000 in
  let times = schedule_chains sim rng ~count ~chains:(1 + pick 4) in
  let last = Array.fold_left Float.max 0. times in
  let until =
    match pick 3 with
    | 0 -> times.(pick count)
    | 1 -> times.(pick count) +. 0.125
    | _ -> last +. 1.
  in
  let due =
    Array.fold_left (fun n t -> if t <= until then n + 1 else n) 0 times
  in
  let max_events =
    match pick 4 with
    | 0 -> None
    | 1 -> Some 0
    | 2 -> Some (pick (count + 1))
    | _ -> Some due
  in
  let stop_calls = ref 0 in
  let stop =
    match pick 3 with
    | 0 -> None
    | 1 -> Some (fun () -> incr stop_calls; false)
    | _ ->
      let j = 1 + pick 4 in
      Some (fun () -> incr stop_calls; !stop_calls >= j)
  in
  (* +1 ms per read; a budget of (j - 1.5) ms trips on the j-th read,
     the first read being the start mark. *)
  let reads = ref 0 in
  let wall_clock () =
    incr reads;
    0.001 *. float_of_int !reads
  in
  let max_wall =
    if pick 2 = 0 then None
    else Some (0.001 *. (float_of_int (2 + pick 4) -. 1.5))
  in
  let reason =
    Engine.Sim.run_guarded sim ~until ?max_events ?max_wall ~wall_clock ?stop ()
  in
  let state () =
    Printf.sprintf "%d %h %d" (Engine.Sim.events_run sim) (Engine.Sim.now sim)
      (Engine.Sim.queue_length sim)
  in
  let guarded =
    Printf.sprintf "%s %s %d %d"
      (Engine.Sim.stop_reason_to_string reason)
      (state ()) !stop_calls !reads
  in
  Engine.Sim.run sim ~until;
  Printf.sprintf "%d %h %s | %s | %s" count until
    (match max_events with None -> "-" | Some m -> string_of_int m)
    guarded (state ())

let watchdog_vectors = "aca89e01d54cbe14399cc3f3ea264082"

let test_guarded_frozen_vectors () =
  let rng = Engine.Rng.create ~seed:20 in
  let lines = List.init 200 (fun _ -> watchdog_case rng) in
  Alcotest.(check string) "200 watchdog cases as pinned" watchdog_vectors
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* ---------------- Runner budgets ---------------- *)

let scenario ?(name = "robustness") ?(validate = false) () =
  Core.Scenario.make ~name ~tau:0.01 ~buffer:(Some 20)
    ~conns:
      [
        Core.Scenario.conn Core.Scenario.Forward;
        Core.Scenario.conn ~start_time:1. Core.Scenario.Reverse;
      ]
    ~duration:30. ~warmup:5. ~validate ()

let test_runner_event_budget () =
  let r =
    Core.Runner.run
      ~budget:(Core.Runner.budget ~max_events:2000 ())
      (scenario ())
  in
  (match r.Core.Runner.stop with
   | Engine.Sim.Event_budget 2000 -> ()
   | s ->
     Alcotest.failf "expected Event_budget 2000, got %s"
       (Engine.Sim.stop_reason_to_string s));
  Alcotest.(check bool) "partial window ends before the horizon" true
    (r.Core.Runner.t1 < 30.);
  Alcotest.(check bool) "no bundle without --bundle-dir" true
    (r.Core.Runner.bundle = None)

let test_runner_wall_budget () =
  let s =
    Core.Scenario.make ~name:"wall" ~tau:0.01 ~buffer:(Some 20)
      ~conns:[ Core.Scenario.conn Core.Scenario.Forward;
               Core.Scenario.conn Core.Scenario.Reverse ]
      ~duration:3600. ~warmup:200. ()
  in
  let r =
    Core.Runner.run ~budget:(Core.Runner.budget ~max_wall:1e-9 ()) s
  in
  (match r.Core.Runner.stop with
   | Engine.Sim.Wall_budget _ -> ()
   | st ->
     Alcotest.failf "expected Wall_budget, got %s"
       (Engine.Sim.stop_reason_to_string st));
  Alcotest.(check bool) "partial window ends before the horizon" true
    (r.Core.Runner.t1 < 3600.)

let test_runner_stop_before_warmup () =
  let r = Core.Runner.run ~stop:(fun () -> true) (scenario ()) in
  Alcotest.check stop_reason "stop requested" Engine.Sim.Stop_requested
    r.Core.Runner.stop;
  Alcotest.(check (float 0.)) "zero forward utilization" 0.
    r.Core.Runner.util_fwd;
  Alcotest.(check (float 0.)) "zero backward utilization" 0.
    r.Core.Runner.util_bwd;
  Array.iter
    (fun d -> Alcotest.(check int) "nothing delivered" 0 d)
    r.Core.Runner.delivered;
  Alcotest.(check (float 0.)) "window degenerates to warmup" 5.
    r.Core.Runner.t1;
  (* The analyses see an empty window: a partial summary, not a crash. *)
  Alcotest.(check (float 0.)) "zero goodput" 0. (Core.Runner.goodput r 0);
  let s = Sweep.Summary.of_result ~id:"early" r in
  Alcotest.(check string) "phase unclassified" "unclassified" s.phase;
  Alcotest.(check bool) "phase correlation is nan" true
    (Float.is_nan s.phase_corr);
  Alcotest.(check int) "no drops in the window" 0 s.drops_window

let test_runner_unbudgeted_result_unchanged () =
  (* The guarded loop must be invisible: a budget too large to trip
     yields the same summary bytes as the plain hot path. *)
  let s = scenario () in
  let plain = Sweep.Summary.to_json (Sweep.Summary.of_result ~id:"x" (Core.Runner.run s)) in
  let guarded =
    Sweep.Summary.to_json
      (Sweep.Summary.of_result ~id:"x"
         (Core.Runner.run ~budget:(Core.Runner.budget ~max_events:max_int ()) s))
  in
  Alcotest.(check string) "guarded run byte-identical" plain guarded

(* ---------------- crash bundles ---------------- *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let test_meta_json_roundtrip () =
  let meta =
    {
      Core.Crash.scenario_name = "weird \"name\"\nwith newline";
      kind = Core.Crash.kind_exception;
      reason = "Sim.run raised Failure(\"boom\")";
      exn_text = Some "Failure(\"boom\")";
      backtrace = Some "Raised at Foo.bar in file \"foo.ml\", line 1\nCalled from Baz.qux";
      validation = None;
      events_run = 12345;
      queue_length = 7;
      sim_now = 17.25;
      max_events = Some 99999;
      max_wall = None;
      scenario_md5 = "0123456789abcdef0123456789abcdef";
    }
  in
  match Core.Crash.meta_of_json (Core.Crash.meta_to_json meta) with
  | Error msg -> Alcotest.fail ("roundtrip failed: " ^ msg)
  | Ok m ->
    Alcotest.(check string) "name" meta.scenario_name m.Core.Crash.scenario_name;
    Alcotest.(check (option string)) "exn" meta.exn_text m.exn_text;
    Alcotest.(check (option string)) "backtrace" meta.backtrace m.backtrace;
    Alcotest.(check int) "events_run" meta.events_run m.events_run;
    Alcotest.(check (float 0.)) "sim_now" meta.sim_now m.sim_now;
    Alcotest.(check (option int)) "max_events" meta.max_events m.max_events;
    Alcotest.(check (option (float 0.))) "max_wall" meta.max_wall m.max_wall;
    Alcotest.(check string) "scenario_md5" meta.scenario_md5 m.scenario_md5

let test_bundle_write_load_replay () =
  let dir = "robustness-bundles" in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let s = scenario ~name:"budgeted" () in
  let r =
    Core.Runner.run
      ~budget:(Core.Runner.budget ~max_events:3000 ())
      ~bundle_dir:dir s
  in
  let path =
    match r.Core.Runner.bundle with
    | Some p -> p
    | None -> Alcotest.fail "budget stop wrote no bundle"
  in
  Alcotest.(check string) "deterministic bundle path"
    (Filename.concat dir "budgeted")
    path;
  match Core.Crash.load path with
  | Error msg -> Alcotest.fail ("load failed: " ^ msg)
  | Ok (s2, meta) ->
    Alcotest.(check string) "scenario survives Marshal" "budgeted"
      s2.Core.Scenario.name;
    Alcotest.(check string) "kind" Core.Crash.kind_event_budget
      meta.Core.Crash.kind;
    Alcotest.(check int) "events recorded" 3000 meta.Core.Crash.events_run;
    (* Replay: pinning the budget to the recorded event count reproduces
       the stop at the same point in simulated time. *)
    let r2 =
      Core.Runner.run
        ~budget:(Core.Runner.budget ~max_events:meta.Core.Crash.events_run ())
        s2
    in
    (match r2.Core.Runner.stop with
     | Engine.Sim.Event_budget n ->
       Alcotest.(check int) "replay stops at the same event count" 3000 n
     | st ->
       Alcotest.failf "replay stopped with %s"
         (Engine.Sim.stop_reason_to_string st));
    Alcotest.(check (float 0.)) "replay reaches the same simulated time"
      r.Core.Runner.t1 r2.Core.Runner.t1

let test_exception_bundle_fields () =
  let dir = "robustness-bundles-exn" in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let sim = Engine.Sim.create () in
  match
    Core.Crash.write ~dir ~scenario:(scenario ~name:"crashed" ()) ~sim
      ~kind:Core.Crash.kind_exception ~reason:"Sim.run raised Failure(\"boom\")"
      ~exn_text:"Failure(\"boom\")" ~backtrace:"Raised at ..." ()
  with
  | Error msg -> Alcotest.fail ("write failed: " ^ msg)
  | Ok path -> (
    match Core.Crash.load path with
    | Error msg -> Alcotest.fail ("load failed: " ^ msg)
    | Ok (_s, meta) ->
      Alcotest.(check string) "kind" Core.Crash.kind_exception
        meta.Core.Crash.kind;
      Alcotest.(check (option string)) "exception text"
        (Some "Failure(\"boom\")") meta.Core.Crash.exn_text;
      Alcotest.(check (option string)) "backtrace" (Some "Raised at ...")
        meta.Core.Crash.backtrace)

(* ---------------- flush-and-close on exception paths ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Open [path], hand [output_string oc] to [f], and flush and close the
   channel on every exit path, exceptions included — what [netsim run]
   does with its own output channels. *)
let with_out_file path f =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
    (fun () -> f (output_string oc))

let test_file_sink_flushes_on_raise () =
  let path = "robustness-torn-trace.bin" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  (* Emit far more than one segment holds, then crash without flushing:
     every filled segment must reach the file whole, and the reader must
     recover every record the sink ever saw.  The tiny segment forces
     many sink handoffs so the crash lands between (or inside) records. *)
  (match
     with_out_file path (fun sink ->
         let w = Obs.Btrace.writer ~segment:256 sink in
         for i = 1 to 500 do
           Obs.Btrace.cwnd w ~time:(float_of_int i) ~conn:1
             ~cwnd:(float_of_int i) ~ssthresh:1.
         done;
         failwith "mid-run crash")
   with
  | () -> Alcotest.fail "expected the crash to propagate"
  | exception Failure _ -> ());
  match Obs.Btrace.read (read_file path) with
  | Error msg -> Alcotest.fail ("trace unreadable: " ^ msg)
  | Ok { Obs.Btrace.items; _ } ->
    let n = List.length items in
    Alcotest.(check bool)
      (Printf.sprintf "most records survived the crash (got %d)" n)
      true
      (n > 400 && n <= 500);
    (* What survived is an exact prefix: cwnd values 1..n in order. *)
    List.iteri
      (fun i item ->
        match item with
        | Obs.Btrace.Event (t, Obs.Btrace.Cwnd { cwnd; _ }) ->
          Alcotest.(check (float 0.))
            "recovered records form the emitted prefix"
            (float_of_int (i + 1))
            cwnd;
          Alcotest.(check (float 0.)) "times intact" cwnd t
        | _ -> Alcotest.fail "unexpected record kind")
      items

let test_traced_run_crash_leaves_parseable_prefix () =
  let path = "robustness-run-trace.bin" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  (match
     with_out_file path (fun sink ->
         let setup = Obs.Probe.setup ~btrace:sink () in
         let _r = Core.Runner.run ~obs:setup (scenario ()) in
         failwith "crash after the traced run")
   with
  | () -> Alcotest.fail "expected the crash to propagate"
  | exception Failure _ -> ());
  (* The runner finished the probe before the crash, so the file decodes
     completely and its JSONL export validates. *)
  let buf = Buffer.create 4096 in
  match Obs.Btrace.export_jsonl (read_file path) (Buffer.add_string buf) with
  | Error msg -> Alcotest.fail ("trace unreadable: " ^ msg)
  | Ok (_, stop) ->
    Alcotest.(check bool) "no torn tail after Probe.finish" true (stop = None);
    (match Obs.Json.validate_jsonl ~key:"t" (Buffer.contents buf) with
     | Ok n ->
       Alcotest.(check bool) "trace non-empty and parseable" true (n > 0)
     | Error msg -> Alcotest.fail ("exported trace: " ^ msg))

(* ---------------- corrupt bundles ---------------- *)

let fuzz_dir = "robustness-bundles-fuzz"

(* A real bundle's scenario and the two files [load] reads. *)
let fuzz_bundle =
  lazy
    (let scenario = scenario ~name:"fuzzed" () in
     match
       Core.Crash.write ~dir:fuzz_dir ~scenario ~sim:(Engine.Sim.create ())
         ~kind:Core.Crash.kind_exception ~reason:"fuzz" ()
     with
     | Error msg -> failwith ("write failed: " ^ msg)
     | Ok path ->
       let read name = read_file (Filename.concat path name) in
       (scenario, read "meta.json", read "scenario.bin"))

(* Lay [meta] and [blob] out as a bundle directory at [fuzz_dir]. *)
let write_files ~meta ~blob =
  if not (Sys.file_exists fuzz_dir) then Sys.mkdir fuzz_dir 0o755;
  List.iter
    (fun (name, content) ->
      Out_channel.with_open_bin (Filename.concat fuzz_dir name) (fun oc ->
          output_string oc content))
    [ ("meta.json", meta); ("scenario.bin", blob) ]

let test_corrupt_bundle_refused () =
  remove_tree fuzz_dir;
  Fun.protect ~finally:(fun () -> remove_tree fuzz_dir) @@ fun () ->
  let _, meta, blob = Lazy.force fuzz_bundle in
  let refused what ~meta ~blob =
    write_files ~meta ~blob;
    match Core.Crash.load fuzz_dir with
    | Error msg -> msg
    | Ok _ -> Alcotest.failf "%s: corrupt bundle loaded" what
  in
  let flipped = Bytes.of_string blob in
  let i = String.length blob / 2 in
  Bytes.set flipped i (Char.chr (Char.code blob.[i] lxor 0x40));
  Alcotest.(check string) "changed scenario.bin"
    "scenario.bin: digest does not match meta.json"
    (refused "flipped byte" ~meta ~blob:(Bytes.to_string flipped));
  let key = {|,"scenario_md5"|} in
  let rec find i =
    if String.sub meta i (String.length key) = key then i else find (i + 1)
  in
  Alcotest.(check string) "no digest"
    "meta.json: missing scenario/kind/reason/scenario_md5"
    (refused "digest removed" ~meta:(String.sub meta 0 (find 0) ^ "}") ~blob)

(* Flip a bit, overwrite a byte or truncate, in either file, one to four
   times: [load] may refuse the bundle or return the original scenario,
   and must never raise. *)
type edit = Flip of int * int | Overwrite of int * char | Truncate of int

let apply data = function
  | _ when data = "" -> data
  | Flip (i, bit) ->
    let b = Bytes.of_string data in
    let i = i mod Bytes.length b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.to_string b
  | Overwrite (i, c) ->
    let b = Bytes.of_string data in
    Bytes.set b (i mod Bytes.length b) c;
    Bytes.to_string b
  | Truncate n -> String.sub data 0 (n mod String.length data)

(* [(true, e)] edits meta.json, [(false, e)] scenario.bin. *)
let edit_gen =
  QCheck.Gen.(
    let pos = int_bound 1023 in
    pair bool
      (oneof
         [
           map2 (fun i bit -> Flip (i, bit)) pos (int_bound 7);
           map2 (fun i c -> Overwrite (i, c)) pos char;
           map (fun n -> Truncate n) pos;
         ]))

let print_edit (on_meta, e) =
  let file = if on_meta then "meta.json" else "scenario.bin" in
  match e with
  | Flip (i, bit) -> Printf.sprintf "%s: flip bit %d at %d" file bit i
  | Overwrite (i, c) -> Printf.sprintf "%s: write %C at %d" file c i
  | Truncate n -> Printf.sprintf "%s: truncate to %d" file n

let prop_bundle_fuzz =
  QCheck.Test.make ~name:"corrupt bundles load as Error or the original"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_edit)
       QCheck.Gen.(list_size (int_range 1 4) edit_gen))
    (fun edits ->
      let original, meta, blob = Lazy.force fuzz_bundle in
      let meta, blob =
        List.fold_left
          (fun (meta, blob) (on_meta, e) ->
            if on_meta then (apply meta e, blob) else (meta, apply blob e))
          (meta, blob) edits
      in
      write_files ~meta ~blob;
      match Core.Crash.load fuzz_dir with
      | Error _ -> true
      | Ok (s, _) -> compare s original = 0)

let test_bundle_fuzz =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_bundle_fuzz in
  ( name,
    speed,
    fun () ->
      remove_tree fuzz_dir;
      Fun.protect ~finally:(fun () -> remove_tree fuzz_dir) run )

let suite =
  ( "robustness",
    [
      Alcotest.test_case "guarded run completes" `Quick test_guarded_completes;
      Alcotest.test_case "event budget stops and resumes" `Quick
        test_guarded_event_budget_and_resume;
      Alcotest.test_case "wall budget poll cadence" `Quick
        test_guarded_wall_budget_cadence;
      Alcotest.test_case "stop request" `Quick test_guarded_stop_request;
      Alcotest.test_case "bad horizons rejected" `Quick
        test_guarded_bad_horizon;
      Alcotest.test_case "budget, stop and horizon edges" `Quick
        test_guarded_edges;
      Alcotest.test_case "watchdog frozen vectors" `Quick
        test_guarded_frozen_vectors;
      Alcotest.test_case "runner event budget" `Quick test_runner_event_budget;
      Alcotest.test_case "runner wall budget" `Quick test_runner_wall_budget;
      Alcotest.test_case "runner stop before warmup" `Quick
        test_runner_stop_before_warmup;
      Alcotest.test_case "untripped budget is invisible" `Quick
        test_runner_unbudgeted_result_unchanged;
      Alcotest.test_case "meta json roundtrip" `Quick test_meta_json_roundtrip;
      Alcotest.test_case "bundle write, load, replay" `Quick
        test_bundle_write_load_replay;
      Alcotest.test_case "exception bundle fields" `Quick
        test_exception_bundle_fields;
      Alcotest.test_case "corrupt bundle refused" `Quick
        test_corrupt_bundle_refused;
      test_bundle_fuzz;
      Alcotest.test_case "file sink flushes on raise" `Quick
        test_file_sink_flushes_on_raise;
      Alcotest.test_case "crashed traced run parseable" `Quick
        test_traced_run_crash_leaves_parseable_prefix;
    ] )
