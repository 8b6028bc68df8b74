(* bench/e2e/main.exe — the netsim end-to-end benchmark.

     dune exec bench/e2e/main.exe -- [--workload W] [--seed N] [--seconds S]
                                     [--trace [0|1]] [--json OUT]
     dune exec bench/e2e/main.exe -- --repeat-check [--seed N]
     dune exec bench/e2e/main.exe -- --smoke

   With --workload, runs that workload in this process and prints, as
   its last stdout line, one JSON object: {"correct", "attempted",
   "failed", "metrics"}.  The metrics are the end-to-end ones, or with
   --trace the per-layer ledger.  Without --workload, runs every
   workload, each in a fresh child process.  --repeat-check runs the
   whole set twice and compares each end-to-end metric's two values
   with its bound in BENCHMARK.json.  --smoke runs everything at 1/50
   scale and asserts the output contract.  README.md has the details. *)

let expected_file = "bench/e2e/expected/digests.txt"
let spans_dir = "bench/e2e/out"
let benchmark_file = "BENCHMARK.json"

type metric = Ledger.metric = { name : string; value : float; unit_ : string }

(* Output checks made so far; [failed] names the ones that failed. *)
type checks = { mutable attempted : int; mutable failed : string list }

type result = { checks : checks; metrics : metric list }

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* Lines "<workload> <full|smoke> <hex digest>" for seed 1. *)
let expected_digest ~workload ~scale_name =
  if not (Sys.file_exists expected_file) then Error (expected_file ^ " not found")
  else
    let ic = open_in expected_file in
    let rec find () =
      match input_line ic with
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ w; s; d ] when w = workload && s = scale_name -> Ok (Some d)
        | _ -> find ())
      | exception End_of_file -> Ok None
    in
    Fun.protect ~finally:(fun () -> close_in ic) find

let check c name ok =
  c.attempted <- c.attempted + 1;
  if not ok then c.failed <- name :: c.failed

(* The checks every mode makes on a workload's warm-up output. *)
let check_first c (w : Workloads.t) (p : Workloads.prepared) ~seed ~scale_name
    (first : Workloads.output) =
  Printf.printf "digest: %s\n" first.digest;
  (match p.reference with
   | Some d -> check c "output equals its reference" (first.digest = d)
   | None -> ());
  if seed = 1 then
    match expected_digest ~workload:w.name ~scale_name with
    | Ok (Some d) -> check c "seed-1 digest matches expected/" (first.digest = d)
    | Ok None -> check c ("no expected digest for " ^ w.name ^ " " ^ scale_name) false
    | Error e -> check c e false

let check_reps c (first : Workloads.output) outs =
  List.iteri
    (fun i (o : Workloads.output) ->
      check c (Printf.sprintf "rep %d digest equals the first rep's" (i + 1))
        (o.digest = first.digest))
    outs

let check_validated c (w : Workloads.t) (first : Workloads.output) =
  match w.validated with
  | None -> ()
  | Some v -> (
    match v () with
    | Ok o -> check c "validated rep is clean and unchanged" (o.digest = first.digest)
    | Error e -> check c ("validation: " ^ e) false)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

(* One rep after a full collection: its output, digested after the
   clock stops, and its raw wall seconds. *)
let timed_rep (p : Workloads.prepared) =
  Gc.full_major ();
  let t0 = Clock.now () in
  let finish = p.rep () in
  let raw = Clock.now () -. t0 in
  (finish (), raw)

(* Peak resident set size of this process so far, in MB (10^6 B), from
   VmHWM in Linux's /proc/self/status. *)
let peak_rss_mb () =
  let line =
    In_channel.with_open_bin "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024. /. 1e6)

(* Each timed rep follows its own timed set-up, so set-up samples span
   the run as rep samples do; both are scaled by the kernel time taken
   right after the rep (see Clock).  The warm-up set-up and rep are
   untimed, and peak_rss_mb is read right after them: the peak of one
   set-up and one rep in a fresh process.  It is not read at the end,
   because the heap the runtime keeps grows with every iteration (on a
   sweep, from 0.7 to 6 MB over 60 iterations while live data stays at
   0.09 MB), so the peak would depend on how many reps the machine's
   speed allowed. *)
let end_to_end (w : Workloads.t) ~seed ~scale_name ~seconds ~min_reps =
  let c = { attempted = 0; failed = [] } in
  let p = w.prepare () in
  let first = p.rep () () in
  let rss_mb = peak_rss_mb () in
  check_first c w p ~seed ~scale_name first;
  let samples = ref [] and outs = ref [] and start = Clock.now () in
  while List.length !samples < min_reps || Clock.now () -. start < seconds do
    Gc.full_major ();
    let t0 = Clock.now () in
    let p = w.prepare () in
    let setup = Clock.now () -. t0 in
    let out, rep = timed_rep p in
    outs := out :: !outs;
    samples := (setup, rep, Clock.kernel_s ()) :: !samples
  done;
  check_reps c first (List.rev !outs);
  check_validated c w first;
  let scaled f = List.map (fun ((_, _, k) as x) -> Clock.scale ~k (f x)) !samples in
  let reps = scaled (fun (_, r, _) -> r) and setups = scaled (fun (s, _, _) -> s) in
  let raw f = Clock.median (List.map f !samples) in
  let p50 = Clock.median reps in
  Printf.printf "reps: %d timed after 1 warm-up; %s per rep: %d (%.0f/s)\n"
    (List.length reps) w.unit_name first.count
    (float_of_int first.count /. p50);
  Printf.printf
    "raw wall medians: rep %.4f s, set-up %.3g s, kernel %.4f s (scaled to %.4f s)\n"
    (raw (fun (_, r, _) -> r))
    (raw (fun (s, _, _) -> s))
    (raw (fun (_, _, k) -> k))
    Clock.nominal;
  {
    checks = c;
    metrics =
      [
        { name = "events_per_s"; value = float_of_int first.events /. p50; unit_ = "1/s" };
        { name = "rep_s_p50"; value = p50; unit_ = "s" };
        { name = "rep_s_p75"; value = Clock.quantile 0.75 reps; unit_ = "s" };
        { name = "setup_s"; value = Clock.median setups; unit_ = "s" };
        { name = "peak_rss_mb"; value = rss_mb; unit_ = "MB" };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let spans_path ~workload ~seed =
  Filename.concat spans_dir (Printf.sprintf "%s-%d.spans.json" workload seed)

let traced (w : Workloads.t) ~seed ~scale_name ~seconds ~min_reps =
  let c = { attempted = 0; failed = [] } in
  let p = w.prepare () in
  let first = p.rep () () in
  check_first c w p ~seed ~scale_name first;
  (* The workload's own rep with span recording off and on, interleaved
     so drift hits both alike: the difference is the tracing overhead. *)
  let off = ref [] and on = ref [] and outs = ref [] and start = Clock.now () in
  while List.length !on < min_reps || Clock.now () -. start < seconds /. 4. do
    List.iter
      (fun (recording, times) ->
        Spans.recording := recording;
        let out, raw = timed_rep p in
        outs := out :: !outs;
        times := Clock.scale ~k:(Clock.kernel_s ()) raw :: !times)
      [ (false, off); (true, on) ]
  done;
  check_reps c first (List.rev !outs);
  Spans.recording := true;
  let entries, ledger = Ledger.run ~min_rounds:min_reps ~seconds ~seed w.scenarios in
  Spans.recording := false;
  let spans = Spans.recorded () in
  mkdir_p spans_dir;
  let file = spans_path ~workload:w.name ~seed in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Spans.to_json ~workload:w.name ~seed spans));
  let overhead = 100. *. ((Clock.median !on /. Clock.median !off) -. 1.) in
  Printf.printf "%-11s %10s %10s %9s %-10s %9s %9s %7s\n" "row" "ms/rep" "count"
    "ns/count" "over" "delta" "words/ct" "spread";
  List.iter
    (fun (e : Ledger.entry) ->
      Printf.printf "%-11s %10.2f %10d %9.1f %-10s %9.1f %9.2f %6.1f%%\n" e.spec.name
        (1e3 *. e.row.seconds) e.row.count (Ledger.ns_per e.row)
        (Option.value e.spec.base ~default:"-")
        (Ledger.delta entries Ledger.ns_per e.spec.name)
        (Ledger.words_per e.row) (100. *. e.row.spread))
    entries;
  let runner = Ledger.find entries "runner" in
  let layer n = (List.find (fun m -> m.name = n) ledger).value in
  Printf.printf
    "engine+net+tcp+trace: %.1f ns/event; runner row: %.1f ns/event (spread %.1f%%)\n"
    (layer "engine.ns_per_event" +. layer "net.ns_per_event"
   +. layer "tcp.ns_per_event" +. layer "trace.ns_per_event")
    (Ledger.ns_per runner) (100. *. runner.spread);
  Printf.printf "self time by layer (s):";
  List.iter (fun (l, s) -> Printf.printf " %s=%.3f" l s) (Spans.self_times spans);
  Printf.printf "\ntracing overhead: %+.2f%% (%d spans, written to %s)\n" overhead
    (List.length spans) file;
  {
    checks = c;
    metrics = ledger @ [ { name = "spans.overhead_pct"; value = overhead; unit_ = "%" } ];
  }

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

let number v = if Float.is_finite v then Obs.Json.float_repr v else "null"

let result_json (r : result) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.checks.failed = []) r.checks.attempted (List.length r.checks.failed)
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (number m.value) m.unit_)
          r.metrics))

let run_one ~workload ~seed ~scale ~seconds ~min_reps ~trace =
  let scale_name = if scale = 1. then "full" else "smoke" in
  let w = Workloads.make workload ~seed ~scale in
  Printf.printf "== %s seed=%d scale=%s%s\n%!" workload seed scale_name
    (if trace then " traced" else "");
  let r =
    if trace then traced w ~seed ~scale_name ~seconds ~min_reps:(if scale = 1. then 5 else 1)
    else end_to_end w ~seed ~scale_name ~seconds ~min_reps
  in
  List.iter (fun n -> Printf.printf "FAILED check: %s\n" n) (List.rev r.checks.failed);
  r

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* (name, bound) of every end-to-end metric, and every per-layer name. *)
let benchmark_metrics () =
  match Obs.Json.parse (read_file benchmark_file) with
  | Error e -> failwith (benchmark_file ^ ": " ^ e)
  | Ok j ->
    let list key =
      match Obs.Json.member key j with
      | Some (Obs.Json.List l) -> l
      | _ -> failwith (benchmark_file ^ ": no list " ^ key)
    in
    let str k o = Option.get (Option.bind (Obs.Json.member k o) Obs.Json.to_string) in
    ( List.map
        (fun o ->
          (str "name" o, Option.get (Option.bind (Obs.Json.member "bound" o) Obs.Json.to_float)))
        (list "end_to_end"),
      List.map (str "name") (list "per_layer") )

(* ------------------------------------------------------------------ *)
(* Every workload, one fresh process each                              *)
(* ------------------------------------------------------------------ *)

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

(* Runs one workload in a fresh child process, echoing its output;
   returns its result line. *)
let child ?(smoke = false) ~seed ~seconds ~trace workload =
  let args =
    [ Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
    @ if smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let out = In_channel.input_all ic in
  print_string out;
  flush stdout;
  match Unix.close_process_in ic with
  | Unix.WEXITED (0 | 1) -> last_line out
  | _ -> failwith (workload ^ ": child process failed")

let run_set ~seed ~seconds ~trace =
  List.map (fun w -> (w, child ~seed ~seconds ~trace w)) Workloads.names

let parse_result line =
  match Obs.Json.parse line with
  | Ok (Obs.Json.Obj _ as j) -> j
  | Ok _ -> Obs.Json.Null
  | Error _ -> Obs.Json.Null

let metrics_of line =
  match Obs.Json.member "metrics" (parse_result line) with
  | Some (Obs.Json.Obj kv) ->
    List.filter_map
      (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Obs.Json.member "value" v) Obs.Json.to_float))
      kv
  | _ -> []

let correct line = Obs.Json.member "correct" (parse_result line) = Some (Obs.Json.Bool true)

let repeat_check ~seed ~seconds =
  let bounds, _ = benchmark_metrics () in
  let a = run_set ~seed ~seconds ~trace:false in
  let b = run_set ~seed ~seconds ~trace:false in
  Printf.printf "\nrepeat check, seed %d: two sets of fresh processes\n" seed;
  Printf.printf "%-13s %-13s %14s %14s %8s %7s\n" "workload" "metric" "set 1" "set 2"
    "diff" "bound";
  let ok = ref true in
  List.iter
    (fun (w, la) ->
      let lb = List.assoc w b in
      if not (correct la && correct lb) then ok := false;
      List.iter
        (fun (name, bound) ->
          match (List.assoc_opt name (metrics_of la), List.assoc_opt name (metrics_of lb)) with
          | Some x, Some y ->
            let d = Float.abs (y -. x) /. x in
            if d > bound then ok := false;
            Printf.printf "%-13s %-13s %14.6g %14.6g %7.2f%% %6.1f%%%s\n" w name x y
              (100. *. d) (100. *. bound)
              (if d > bound then "  OVER" else "")
          | _ ->
            ok := false;
            Printf.printf "%-13s %-13s missing\n" w name)
        bounds)
    a;
  if !ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Smoke test                                                          *)
(* ------------------------------------------------------------------ *)

let smoke_scale = 0.02

(* Every workload at [smoke_scale], seeds 1 and 2, untraced and traced,
   each in a child process as in a real run; checks the output
   contract. *)
let smoke () =
  let e2e_names, layer_names = benchmark_metrics () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun seed ->
      List.iter
        (fun workload ->
          List.iter
            (fun (trace, names) ->
              let what =
                Printf.sprintf "%s seed %d%s" workload seed (if trace then " traced" else "")
              in
              let line = child ~smoke:true ~seed ~seconds:0. ~trace workload in
              if not (correct line) then problem "%s: checks failed" what;
              let printed = metrics_of line in
              List.iter
                (fun n ->
                  if not (List.mem_assoc n printed) then problem "%s: %s not printed" what n)
                names)
            [ (false, List.map fst e2e_names); (true, layer_names) ];
          match Obs.Json.parse (read_file (spans_path ~workload ~seed)) with
          | Error e -> problem "%s seed %d: spans file does not parse: %s" workload seed e
          | Ok j -> (
            match Obs.Json.member "self_s" j with
            | Some (Obs.Json.Obj (_ :: _ as kv)) ->
              List.iter
                (fun (l, v) ->
                  match Obs.Json.to_float v with
                  | Some s when s >= 0. -> ()
                  | _ -> problem "%s seed %d: layer %s self time < 0" workload seed l)
                kv
            | _ -> problem "%s seed %d: spans file has no self times" workload seed))
        Workloads.names)
    [ 1; 2 ];
  (* Seed coverage: another seed must draw other start offsets. *)
  List.iter
    (fun workload ->
      let starts seed =
        List.concat_map
          (fun (sc : Core.Scenario.t) ->
            List.map (fun (c : Core.Scenario.conn_spec) -> c.start_time) sc.conns)
          (Workloads.make workload ~seed ~scale:smoke_scale).scenarios
      in
      if starts 1 = starts 2 then problem "%s: seeds 1 and 2 draw the same offsets" workload)
    Workloads.names;
  match !problems with
  | [] ->
    print_endline "smoke: OK";
    0
  | ps ->
    List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
    1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: main.exe [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
   [--json OUT] | --repeat-check [--seed N] [--seconds S] | --smoke"

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20. in
  let trace = ref false and json = ref None in
  let repeat = ref false and smoke_mode = ref false in
  let fail msg =
    prerr_endline (msg ^ "\n" ^ usage);
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if not (List.mem w Workloads.names) then
        fail ("unknown workload " ^ w ^ " (" ^ String.concat ", " Workloads.names ^ ")");
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> seed := n | None -> fail "bad --seed");
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some s when s >= 0. -> seconds := s
       | _ -> fail "bad --seconds");
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := v = "1";
      parse rest
    | "--trace" :: rest ->
      trace := true;
      parse rest
    | "--json" :: f :: rest ->
      json := Some f;
      parse rest
    | "--repeat-check" :: rest ->
      repeat := true;
      parse rest
    | "--smoke" :: rest ->
      smoke_mode := true;
      parse rest
    | arg :: _ -> fail ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let write_json s =
    Option.iter
      (fun f -> Out_channel.with_open_bin f (fun oc -> output_string oc (s ^ "\n")))
      !json
  in
  let code =
    match !workload with
    | _ when !repeat -> repeat_check ~seed:!seed ~seconds:!seconds
    | None when !smoke_mode -> smoke ()
    | Some workload ->
      let scale, min_reps = if !smoke_mode then (smoke_scale, 2) else (1., 10) in
      let r = run_one ~workload ~seed:!seed ~scale ~seconds:!seconds ~min_reps ~trace:!trace in
      let line = result_json r in
      write_json line;
      print_endline line;
      if r.checks.failed = [] then 0 else 1
    | None ->
      let set = run_set ~seed:!seed ~seconds:!seconds ~trace:!trace in
      write_json
        ("{"
        ^ String.concat ", " (List.map (fun (w, l) -> Printf.sprintf "\"%s\": %s" w l) set)
        ^ "}");
      if List.for_all (fun (_, l) -> correct l) set then 0 else 1
  in
  exit code
