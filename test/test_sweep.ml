(* lib/sweep + lib/sweep/pool: the parallel fan-out must be invisible in
   the results — same values, same order, same bytes — for any executor
   and any job count.  The dead-worker and stop tests pin
   [~backend:Fork]: worker processes only exist there. *)

(* Under `dune runtest` the cwd is _build/default/test; under
   `dune exec test/test_main.exe` it is the workspace root. *)
let netsim =
  List.find_opt Sys.file_exists
    [
      Filename.concat (Filename.concat ".." "bin") "netsim.exe";
      "_build/default/bin/netsim.exe";
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ---------------- Sweep_pool ---------------- *)

(* [Domain] is an alias of [Fork]; every pool test checks it too. *)
let backends =
  [ ("seq", Sweep_pool.Seq); ("fork", Sweep_pool.Fork);
    ("domain", Sweep_pool.Domain) ]

let test_pool_matches_sequential () =
  let xs = List.init 17 (fun i -> i) in
  let f x = (x, x * x) in
  List.iter
    (fun (label, backend) ->
      Alcotest.(check (list (pair int int)))
        (label ^ " jobs=3 equals in-process map")
        (List.map f xs)
        (Sweep_pool.map ~backend ~jobs:3 f xs))
    backends

let test_pool_edge_sizes () =
  List.iter
    (fun (label, backend) ->
      Alcotest.(check (list int))
        (label ^ ": empty input") []
        (Sweep_pool.map ~backend ~jobs:4 (fun x -> x) []);
      Alcotest.(check (list int))
        (label ^ ": fewer items than jobs")
        [ 2; 4 ]
        (Sweep_pool.map ~backend ~jobs:8 (fun x -> 2 * x) [ 1; 2 ]);
      Alcotest.(check (list int))
        (label ^ ": jobs=1 stays in-process")
        [ 7 ]
        (Sweep_pool.map ~backend ~jobs:1 (fun x -> 7 * x) [ 1 ]))
    backends

let test_pool_worker_error () =
  List.iter
    (fun (label, backend) ->
      match
        Sweep_pool.map ~backend ~jobs:2
          (fun x -> if x = 3 then failwith "boom" else x)
          [ 1; 2; 3; 4 ]
      with
      | _ -> Alcotest.fail (label ^ ": expected Sweep_pool.Error")
      | exception Sweep_pool.Error e ->
        Alcotest.(check int)
          (label ^ ": one failed point")
          1
          (List.length e.point_failures);
        let pf = List.hd e.point_failures in
        Alcotest.(check int)
          (label ^ ": failing point index")
          2 pf.Sweep_pool.point;
        Alcotest.(check string)
          (label ^ ": exception text carried back")
          "Failure(\"boom\")" pf.Sweep_pool.exn_text)
    backends

(* A worker that dies loses exactly the tasks it had not returned yet.
   Worker w of [jobs] owns w, w + jobs, ... and returns them in order,
   so when it dies at task k its indices from k on become point failures
   naming the wait status (with 8 tasks at jobs 2 and k = 4: [4; 6]),
   everything else is present, and nothing is computed a second time —
   not in a new worker, not in the parent. *)
let test_pool_dead_worker () =
  let parent = Unix.getpid () in
  let parent_calls = ref 0 in
  let sigkill () = Unix.kill (Unix.getpid ()) Sys.sigkill in
  List.iter
    (fun (how, n, jobs, k, die, needle) ->
      let label = Printf.sprintf "%s n=%d jobs=%d k=%d" how n jobs k in
      let o =
        Sweep_pool.map_collect ~backend:Sweep_pool.Fork ~jobs
          (fun x ->
            if Unix.getpid () = parent then incr parent_calls
            else if x = k then die ();
            10 * x)
          (List.init n Fun.id)
      in
      let lost i = i mod min jobs n = k mod min jobs n && i >= k in
      Alcotest.(check (array (option int)))
        (label ^ ": every other result present")
        (Array.init n (fun i -> if lost i then None else Some (10 * i)))
        o.results;
      Alcotest.(check (list int))
        (label ^ ": the dead worker's unreturned points fail")
        (List.filter lost (List.init n Fun.id))
        (List.map (fun (p : Sweep_pool.point_failure) -> p.point)
           o.point_failures);
      List.iter
        (fun (p : Sweep_pool.point_failure) ->
          if not (contains p.exn_text needle) then
            Alcotest.failf "%s: %S does not name %S" label p.exn_text needle)
        o.point_failures;
      Alcotest.(check bool) (label ^ ": not interrupted") false o.interrupted)
    [
      ("SIGKILL", 8, 2, 4, sigkill, "killed by SIGKILL");
      ("_exit 3", 8, 2, 4, (fun () -> Unix._exit 3), "exited with code 3");
      (* dies at its first task: its whole share fails *)
      ("SIGKILL", 7, 3, 1, sigkill, "killed by SIGKILL");
      (* dies at its last task *)
      ("SIGKILL", 10, 4, 9, sigkill, "killed by SIGKILL");
      (* more jobs than tasks: one worker per task *)
      ("SIGKILL", 3, 4, 2, sigkill, "killed by SIGKILL");
    ];
  Alcotest.(check int) "nothing re-run in the parent" 0 !parent_calls

(* Results far larger than a socket buffer and the parent's 64 KiB read
   arrive in many pieces, interleaved across workers with tiny ones; the
   Marshal stream must still split into exactly one value per point. *)
let test_pool_large_results () =
  let f i =
    String.make (if i mod 2 = 0 then 200_000 + i else i) (Char.chr (65 + i))
  in
  let xs = List.init 9 Fun.id in
  List.iter
    (fun (label, backend) ->
      Alcotest.(check (list string))
        (label ^ " jobs=3 equals in-process map")
        (List.map f xs)
        (Sweep_pool.map ~backend ~jobs:3 f xs))
    backends

(* A stop raised mid-sweep: workers poll it between points, so the one
   that raised it keeps exactly its share up to that point, every other
   worker keeps a prefix of its share, and a worker that stopped early
   on request is not a failure.  The flag is a file because each worker
   runs in its own copy of the heap. *)
let test_pool_stop_mid_share () =
  let flag = Filename.temp_file "sweep_pool_stop" "" in
  Sys.remove flag;
  Fun.protect ~finally:(fun () -> if Sys.file_exists flag then Sys.remove flag)
  @@ fun () ->
  let n = 12 and jobs = 3 and k = 4 in
  let o =
    Sweep_pool.map_collect ~backend:Sweep_pool.Fork ~jobs
      ~stop:(fun () -> Sys.file_exists flag)
      (fun x ->
        if x = k then close_out (open_out flag);
        x + 100)
      (List.init n Fun.id)
  in
  Alcotest.(check bool) "interrupted" true o.interrupted;
  Alcotest.(check (list Alcotest.reject)) "no point failures" []
    o.point_failures;
  Array.iteri
    (fun i r ->
      match r with
      | Some v -> Alcotest.(check int) (Printf.sprintf "point %d" i) (i + 100) v
      | None -> ())
    o.results;
  Alcotest.(check (list bool))
    "the stopping worker kept its share up to the stop"
    [ true; true; false; false ]
    (List.map (fun i -> Option.is_some o.results.(i)) [ 1; 4; 7; 10 ]);
  for w = 0 to jobs - 1 do
    let share = List.filter (fun i -> i mod jobs = w) (List.init n Fun.id) in
    let present = List.map (fun i -> Option.is_some o.results.(i)) share in
    let rec prefix = function
      | false :: rest -> List.for_all not rest
      | true :: rest -> prefix rest
      | [] -> true
    in
    Alcotest.(check bool)
      (Printf.sprintf "worker %d returned a prefix of its share" w)
      true (prefix present)
  done

(* on_progress: one call per accounted task, prog_done counting 1..n in
   order, a raising task included. *)
let test_pool_progress () =
  let n = 7 in
  List.iter
    (fun (label, backend) ->
      let seen = ref [] in
      let o =
        Sweep_pool.map_collect ~backend ~jobs:3
          ~on_progress:(fun p -> seen := p :: !seen)
          (fun x -> if x = 3 then failwith "boom" else x)
          (List.init n Fun.id)
      in
      Alcotest.(check int) (label ^ ": the raising task failed") 1
        (List.length o.point_failures);
      Alcotest.(check (list int))
        (label ^ ": prog_done runs 1..n in order")
        (List.init n succ)
        (List.rev_map (fun (p : Sweep_pool.progress) -> p.prog_done) !seen);
      List.iter
        (fun (p : Sweep_pool.progress) ->
          Alcotest.(check int) (label ^ ": prog_total") n p.prog_total)
        !seen)
    backends

(* [Domain] at jobs 2 runs forked workers: some progress report counts a
   live worker, which the in-process loop never does. *)
let test_pool_domain_forks () =
  let running backend =
    let seen = ref [] in
    ignore
      (Sweep_pool.map_collect ~backend ~jobs:2
         ~on_progress:(fun p -> seen := p.Sweep_pool.prog_running :: !seen)
         Fun.id (List.init 8 Fun.id)
        : int Sweep_pool.outcome);
    !seen
  in
  Alcotest.(check bool) "domain: a worker was running" true
    (List.exists (fun r -> r >= 1) (running Sweep_pool.Domain));
  Alcotest.(check (list int)) "seq: no worker ever running"
    (List.init 8 (fun _ -> 0))
    (running Sweep_pool.Seq)

(* ---------------- The Domain alias ----------------
   A [Domain] request runs forked workers, so it keeps the whole pool
   contract: values and order, failures, progress, cooperative stop and
   a stop raised by a signal. *)

let dom = Sweep_pool.Domain

let test_domain_matches_map () =
  let f x = ((3 * x) + 1, x * x) in
  List.iter
    (fun (n, jobs) ->
      let xs = List.init n Fun.id in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "n=%d jobs=%d equals in-process map" n jobs)
        (List.map f xs)
        (Sweep_pool.map ~backend:dom ~jobs f xs))
    (* 2000 tasks at jobs 4 stream many results through each worker's
       socket; the small cases cover more jobs than tasks and one task. *)
    [ (17, 3); (2000, 4); (5, 8); (1, 4) ];
  Alcotest.(check (list int))
    "empty input" []
    (Sweep_pool.map ~backend:dom ~jobs:4 Fun.id [])

let test_domain_task_exception () =
  let f x = if x = 3 then failwith "boom" else x in
  (match Sweep_pool.map ~backend:dom ~jobs:2 f [ 1; 2; 3; 4 ] with
   | _ -> Alcotest.fail "expected Sweep_pool.Error"
   | exception Sweep_pool.Error e ->
     Alcotest.(check int) "one failed point" 1 (List.length e.point_failures);
     let pf = List.hd e.point_failures in
     Alcotest.(check int) "failing point index" 2 pf.Sweep_pool.point;
     Alcotest.(check string) "exception text carried back"
       "Failure(\"boom\")" pf.Sweep_pool.exn_text);
  (* map_collect keeps the surviving results. *)
  let o = Sweep_pool.map_collect ~backend:dom ~jobs:2 f [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "not interrupted" false o.interrupted;
  Alcotest.(check (array (option int)))
    "non-raising points all present"
    [| Some 1; Some 2; None; Some 4 |]
    o.results

(* on_progress runs in the calling process: once per task, prog_done
   counting 1..n in order, never more live workers than jobs. *)
let test_domain_progress () =
  let n = 500 and jobs = 4 in
  let seen = ref [] in
  let o =
    Sweep_pool.map_collect ~backend:dom ~jobs
      ~on_progress:(fun p -> seen := p :: !seen)
      Fun.id (List.init n Fun.id)
  in
  Alcotest.(check bool) "all tasks completed" true
    (Array.for_all Option.is_some o.results);
  Alcotest.(check (list int)) "prog_done runs 1..n in order"
    (List.init n succ)
    (List.rev_map (fun (p : Sweep_pool.progress) -> p.prog_done) !seen);
  Alcotest.(check bool) "at most jobs live workers" true
    (List.for_all (fun (p : Sweep_pool.progress) -> p.prog_running <= jobs)
       !seen)

(* Cooperative stop: the flag goes up after the first completed task.
   Each worker counts its own tasks and the parent counts accounted ones,
   so a worker stops after its first task and the parent, whose flag is
   up by the time it reaps, keeps the outcome a clean partial one. *)
let test_domain_stop_partial () =
  let seen = ref 0 in
  let o =
    Sweep_pool.map_collect ~backend:dom ~jobs:2
      ~on_progress:(fun _ -> incr seen)
      ~stop:(fun () -> !seen > 0)
      (fun x ->
        incr seen;
        x * 2)
      (List.init 64 Fun.id)
  in
  Alcotest.(check bool) "interrupted" true o.interrupted;
  let completed = ref 0 in
  Array.iteri
    (fun i -> function
      | Some r ->
        incr completed;
        Alcotest.(check int)
          (Printf.sprintf "completed point %d is correct" i)
          (2 * i) r
      | None -> ())
    o.results;
  Alcotest.(check bool) "partial: stop landed before the end" true
    (!completed < 64);
  Alcotest.(check (list Alcotest.reject)) "no spurious point failures" []
    o.point_failures

(* SIGINT sent to the calling process alone: the first task signals it,
   its handler (a monotonic ref flip, as installed by netsim) raises the
   stop, and the workers, which never see the signal, finish their
   in-flight tasks and skip the rest. *)
let test_domain_sigint_stop () =
  let hit = ref false in
  let old =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> hit := true))
  in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigint old)
  @@ fun () ->
  let parent = Unix.getpid () in
  let o =
    Sweep_pool.map_collect ~backend:dom ~jobs:2
      ~stop:(fun () -> !hit)
      (fun x ->
        if x = 0 then Unix.kill parent Sys.sigint;
        Unix.sleepf 0.01;
        x + 100)
      (List.init 64 Fun.id)
  in
  Alcotest.(check bool) "interrupted by the signal" true o.interrupted;
  Array.iteri
    (fun i -> function
      | Some r ->
        Alcotest.(check int)
          (Printf.sprintf "in-flight point %d kept and correct" i)
          (i + 100) r
      | None -> ())
    o.results;
  Alcotest.(check bool) "workers skipped the rest" true
    (Array.exists Option.is_none o.results);
  Alcotest.(check (list Alcotest.reject)) "no spurious point failures" []
    o.point_failures

(* Cooperative stop: map_collect returns a partial outcome flagged
   interrupted instead of finishing the grid. *)
let test_pool_stop_interrupts () =
  let outcome =
    Sweep_pool.map_collect ~backend:Sweep_pool.Fork ~jobs:2
      ~stop:(fun () -> true)
      (fun x -> x)
      (List.init 8 (fun i -> i))
  in
  Alcotest.(check bool) "interrupted" true outcome.interrupted;
  Alcotest.(check (list Alcotest.reject)) "no spurious point failures" []
    outcome.point_failures;
  (* A stop only the parent sees — a signal sent to its pid alone —
     still stops the workers after their in-flight points. *)
  let parent = Unix.getpid () in
  let accounted = ref false in
  let o =
    Sweep_pool.map_collect ~backend:Sweep_pool.Fork ~jobs:2
      ~on_progress:(fun _ -> accounted := true)
      ~stop:(fun () -> Unix.getpid () = parent && !accounted)
      (fun x ->
        Unix.sleepf 0.01;
        x)
      (List.init 64 Fun.id)
  in
  Alcotest.(check bool) "parent-only stop: interrupted" true o.interrupted;
  Alcotest.(check (list Alcotest.reject)) "parent-only stop: no point failures"
    [] o.point_failures;
  Alcotest.(check bool) "parent-only stop: workers skipped the rest" true
    (Array.exists Option.is_none o.results)

(* ---------------- Driver determinism ---------------- *)

let test_driver_jobs_identical () =
  let points = Sweep.Grids.smoke.points () in
  let j1 = Sweep.Driver.to_json (Sweep.Driver.run ~jobs:1 points) in
  let j2 =
    Sweep.Driver.to_json
      (Sweep_pool.map ~backend:Sweep_pool.Fork ~jobs:2
         (fun p -> Sweep.Driver.run_point p)
         points)
  in
  Alcotest.(check string) "jobs 1 vs 2 byte-identical JSON" j1 j2

(* The smoke grid under every executor at jobs 1, 2 and 4 gives the
   sequential run's bytes. *)
let test_backend_bytes_identical () =
  let points = Sweep.Grids.smoke.points () in
  let json backend jobs =
    Sweep.Driver.to_json
      (Sweep_pool.map ~backend ~jobs (fun p -> Sweep.Driver.run_point p) points)
  in
  let reference = json Sweep_pool.Seq 1 in
  List.iter
    (fun (label, backend) ->
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s jobs=%d matches sequential bytes" label jobs)
            reference (json backend jobs))
        [ 1; 2; 4 ])
    backends

(* For random task grids and job counts, the fork pool is exactly
   List.map — order, values, length. *)
let prop_fork_matches_map =
  QCheck.Test.make ~name:"fork pool equals List.map on random grids"
    ~count:40
    QCheck.(pair (small_list small_int) (int_range 1 6))
    (fun (xs, jobs) ->
      let f x = ((5 * x) - 7, string_of_int x) in
      Sweep_pool.map ~backend:Sweep_pool.Fork ~jobs f xs = List.map f xs)

(* ---------------- netsim sweep SIGINT: exit 130, partial table -------- *)

(* One attempt: spawn a sweep, SIGINT it after [delay] seconds.
   [`Exit_130 stdout] is success; [`Too_late] means the sweep finished
   before the signal (retry with a shorter delay); [`Too_early] means
   the signal landed before the handler was installed and killed the
   process (retry with a longer delay). *)
let sigint_attempt ~netsim ~delay =
  let out = Filename.temp_file "netsim-sigint" ".out" in
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_err = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process netsim
      [| netsim; "sweep"; "phase-diagram"; "--jobs"; "2" |]
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  Unix.sleepf delay;
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | p, _ when p = pid -> `Too_late
  | _ ->
    Unix.kill pid Sys.sigint;
    (match Unix.waitpid [] pid with
     | _, Unix.WEXITED 130 -> `Exit_130 (read_file out)
     | _, Unix.WEXITED c -> `Exit c
     | _, Unix.WSIGNALED s when s = Sys.sigint -> `Too_early
     | _, Unix.WSIGNALED s -> `Signaled s
     | _, Unix.WSTOPPED _ -> `Exit (-1))

(* The K and N of the "interrupted: K of N points ..." line. *)
let interrupted_counts stdout =
  List.find_map
    (fun line ->
      try Scanf.sscanf line "interrupted: %d of %d" (fun k n -> Some (k, n))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    (String.split_on_char '\n' stdout)

let test_cli_sigint_exit_130 () =
  let netsim =
    match netsim with
    | Some p when Sys.os_type = "Unix" -> p
    | _ -> Alcotest.skip ()
  in
  (* The grid takes a fraction of a second, so the right delay depends
     on the machine: walk a ladder of delays instead of guessing one. *)
  let rec try_delays = function
    | [] ->
      Alcotest.fail
        "could not land SIGINT mid-sweep at any delay (machine too \
         fast/slow, or the workers ran every point after it?)"
    | delay :: rest -> (
      match sigint_attempt ~netsim ~delay with
      | `Exit_130 stdout -> (
        match interrupted_counts stdout with
        (* Every point ran: the signal came too late, or the workers never
           heard of it (it is sent to netsim's pid alone). *)
        | Some (k, n) when k = n -> try_delays rest
        | counts ->
          Alcotest.(check bool)
            "partial table printed (header reaches stdout)" true
            (contains stdout "point");
          Alcotest.(check bool)
            "interrupted summary line printed" true (counts <> None))
      | `Too_late | `Too_early -> try_delays rest
      | `Exit c ->
        Alcotest.fail (Printf.sprintf "expected exit 130, got exit %d" c)
      | `Signaled s ->
        Alcotest.fail (Printf.sprintf "expected exit 130, got signal %d" s))
  in
  try_delays [ 0.15; 0.05; 0.25; 0.02; 0.4; 0.1; 0.05; 0.02 ]

(* ---------------- Summary JSON ---------------- *)

let test_json_special_floats () =
  let s =
    {
      Sweep.Summary.id = "x\"y";
      params = [ ("a", 1.5) ];
      cc = "tahoe";
      util_fwd = Float.nan;
      util_bwd = Float.infinity;
      drops_window = 0;
      drops_total = 0;
      delivered = [ 1; 2 ];
      phase = "in-phase";
      phase_corr = 0.25;
      epoch_count = 0;
      mean_drops_per_epoch = None;
      single_loser = Some 0.5;
      q1_max = 0.;
      q2_max = 0.;
      effective_pipe = None;
      jain = 0.9;
      fct_p50 = None;
      fct_p99 = None;
      metrics = [ ("net.injected", 3.) ];
    }
  in
  let json = Sweep.Summary.to_json s in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "NaN encodes as null" true
    (contains "\"util_fwd\":null");
  Alcotest.(check bool) "infinity encodes as null" true
    (contains "\"util_bwd\":null");
  Alcotest.(check bool) "quote escaped in id" true (contains "x\\\"y");
  Alcotest.(check bool) "None option is null" true
    (contains "\"effective_pipe\":null");
  Alcotest.(check bool) "jain encoded" true (contains "\"jain\":0.9");
  Alcotest.(check bool) "fct columns null without completions" true
    (contains "\"fct_p50\":null,\"fct_p99\":null")

(* Every float the summary writes is spelled as [Printf.sprintf "%.9g"]
   spells it: integers on both sides of 1e9, negative zero, halves,
   tiny and huge magnitudes, and arbitrary bit patterns. *)
let prop_json_float_spelling =
  let gen =
    let open QCheck.Gen in
    oneof
      [ oneofl
          [ 0.; -0.; 1.; -1.; 999_999_999.; -999_999_999.; 1e9; -1e9;
            1e9 +. 1.; 0.5; -2.5; 1e-7; 4.9e-324; 1.7976931348623157e308 ];
        map float_of_int (int_range (-2_000_000_000) 2_000_000_000);
        map (fun n -> float_of_int n /. 8.) (int_range (-100_000) 100_000);
        map Int64.float_of_bits ui64 ]
  in
  QCheck.Test.make ~name:"summary floats spelled as %.9g" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f ->
      let json =
        Sweep.Summary.to_json
          { Sweep.Summary.id = "p"; params = [ ("a", f) ]; cc = "tahoe";
            util_fwd = 0.; util_bwd = 0.; drops_window = 0; drops_total = 0;
            delivered = []; phase = "?"; phase_corr = 0.; epoch_count = 0;
            mean_drops_per_epoch = None; single_loser = None; q1_max = 0.;
            q2_max = 0.; effective_pipe = None; jain = 0.; fct_p50 = None;
            fct_p99 = None; metrics = [] }
      in
      let spelled =
        if Float.is_nan f || Float.abs f = Float.infinity then "null"
        else Printf.sprintf "%.9g" f
      in
      let prefix = "{\"id\":\"p\",\"params\":{\"a\":" in
      let n = String.length prefix in
      String.sub json n (String.index_from json n '}' - n) = spelled)

(* ---------------- Grids registry ---------------- *)

let test_grids_registry () =
  Alcotest.(check bool) "registry non-empty" true (Sweep.Grids.all <> []);
  List.iter
    (fun (g : Sweep.Grids.spec) ->
      (match Sweep.Grids.find g.name with
       | Some found ->
         Alcotest.(check string) ("find " ^ g.name) g.name found.name
       | None -> Alcotest.fail ("find " ^ g.name ^ " returned None"));
      let pts = g.points () in
      Alcotest.(check bool) (g.name ^ " has points") true (pts <> []);
      let ids = List.map (fun (p : Sweep.Driver.point) -> p.id) pts in
      Alcotest.(check int)
        (g.name ^ " ids unique")
        (List.length ids)
        (List.length (List.sort_uniq compare ids)))
    Sweep.Grids.all;
  Alcotest.(check bool) "unknown grid" true (Sweep.Grids.find "nope" = None)

let suite =
  ( "sweep",
    [
      Alcotest.test_case "pool matches sequential" `Quick
        test_pool_matches_sequential;
      Alcotest.test_case "pool edge sizes" `Quick test_pool_edge_sizes;
      Alcotest.test_case "pool worker error" `Quick test_pool_worker_error;
      Alcotest.test_case "pool dead worker" `Quick test_pool_dead_worker;
      Alcotest.test_case "pool large results" `Quick test_pool_large_results;
      Alcotest.test_case "pool progress" `Quick test_pool_progress;
      Alcotest.test_case "pool domain alias forks" `Quick
        test_pool_domain_forks;
      Alcotest.test_case "domain pool matches map" `Quick
        test_domain_matches_map;
      Alcotest.test_case "domain task exception" `Quick
        test_domain_task_exception;
      Alcotest.test_case "domain progress" `Quick test_domain_progress;
      Alcotest.test_case "domain cooperative stop" `Quick
        test_domain_stop_partial;
      Alcotest.test_case "domain SIGINT stop" `Quick test_domain_sigint_stop;
      Alcotest.test_case "pool cooperative stop" `Quick
        test_pool_stop_interrupts;
      Alcotest.test_case "pool stop mid-share" `Quick test_pool_stop_mid_share;
      Alcotest.test_case "driver jobs 1 vs 2 identical" `Quick
        test_driver_jobs_identical;
      Alcotest.test_case "json special floats" `Quick test_json_special_floats;
      QCheck_alcotest.to_alcotest prop_json_float_spelling;
      Alcotest.test_case "grids registry" `Quick test_grids_registry;
      QCheck_alcotest.to_alcotest prop_fork_matches_map;
      Alcotest.test_case "netsim sweep SIGINT exits 130" `Slow
        test_cli_sigint_exit_130;
      Alcotest.test_case "byte-identical across backends x jobs" `Slow
        test_backend_bytes_identical;
    ] )
