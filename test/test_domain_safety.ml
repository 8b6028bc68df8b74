(* Domain-backend coverage: the OCaml 5 shared-memory executor must be
   observationally identical to the sequential and fork backends — same
   values, same order, same JSON bytes for any job count — and must
   honour cooperative stop and SIGINT with a clean partial outcome.

   Ordering matters twice over.  Once a domain has been spawned, the
   OCaml 5 runtime forbids Unix.fork for the rest of the process, so
   (a) test_main.ml registers this suite after Test_sweep, whose
   fork-backend tests must already have run, and (b) within this suite
   the tests that fork — the netsim SIGINT subprocess test and the
   fork-backend reference runs of the byte-identity test — come first,
   before the first Domain.spawn.

   On 4.14 builds Domain requests degrade to the fork executor, so the
   backend-agnostic tests still run and still hold; the tests whose
   mechanics are domain-specific (shared-heap stop flags, in-process
   signals) are registered only when the domain backend exists. *)

let dom = Sweep_pool.Domain

(* ---------------- netsim SIGINT: exit 130, partial table ----------------
   Forks netsim, so this must be the first test in the suite. *)

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
  let rec go i =
    i + n <= h && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

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
         fast/slow?)"
    | delay :: rest -> (
      match sigint_attempt ~netsim ~delay with
      | `Exit_130 stdout ->
        Alcotest.(check bool)
          "partial table printed (header reaches stdout)" true
          (contains stdout "point");
        Alcotest.(check bool)
          "interrupted summary line printed" true
          (contains stdout "interrupted:")
      | `Too_late | `Too_early -> try_delays rest
      | `Exit c ->
        Alcotest.fail (Printf.sprintf "expected exit 130, got exit %d" c)
      | `Signaled s ->
        Alcotest.fail (Printf.sprintf "expected exit 130, got signal %d" s))
  in
  try_delays [ 0.15; 0.05; 0.25; 0.02; 0.4; 0.1; 0.05; 0.02 ]

(* ---------------- Byte-identity across backends and job counts --------
   The tentpole guarantee: {seq, fork, domain} x jobs {1, 2, 4} all
   produce byte-identical sweep JSON.  Fork runs precede domain runs
   (fork-after-domain is forbidden, see header). *)

let test_backend_bytes_identical () =
  let points = Sweep.Grids.smoke.points () in
  let json backend jobs =
    Sweep.Driver.to_json
      (Sweep_pool.map ~backend ~jobs (fun p -> Sweep.Driver.run_point p) points)
  in
  let reference = json Sweep_pool.Seq 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "fork jobs=%d matches sequential bytes" jobs)
        reference
        (json Sweep_pool.Fork jobs))
    [ 1; 2; 4 ];
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "domain jobs=%d matches sequential bytes" jobs)
        reference (json dom jobs))
    [ 1; 2; 4 ]

(* ---------------- Pool semantics under the domain backend ------------- *)

let test_domain_matches_map () =
  let f x = ((3 * x) + 1, x * x) in
  List.iter
    (fun (n, jobs) ->
      let xs = List.init n (fun i -> i) in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "n=%d jobs=%d equals in-process map" n jobs)
        (List.map f xs)
        (Sweep_pool.map ~backend:dom ~jobs f xs))
    (* 2000 tasks at jobs=4 exercises chunked index pulling (chunk > 1);
       the small cases exercise the chunk = 1 floor and the tail. *)
    [ (17, 3); (2000, 4); (5, 8); (1, 4) ];
  Alcotest.(check (list int))
    "empty input" []
    (Sweep_pool.map ~backend:dom ~jobs:4 (fun x -> x) [])

let test_domain_task_exception () =
  let f x = if x = 3 then failwith "boom" else x in
  (match Sweep_pool.map ~backend:dom ~jobs:2 f [ 1; 2; 3; 4 ] with
   | _ -> Alcotest.fail "expected Sweep_pool.Error"
   | exception Sweep_pool.Error e ->
     Alcotest.(check int) "one failed point" 1 (List.length e.point_failures);
     let pf = List.hd e.point_failures in
     Alcotest.(check int) "failing point index" 2 pf.Sweep_pool.point;
     Alcotest.(check string) "exception text carried across domains"
       "Failure(\"boom\")" pf.Sweep_pool.exn_text);
  (* map_collect keeps the surviving results. *)
  let o = Sweep_pool.map_collect ~backend:dom ~jobs:2 f [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "not interrupted" false o.interrupted;
  Alcotest.(check (array (option int)))
    "non-raising points all present"
    [| Some 1; Some 2; None; Some 4 |]
    o.results

(* Cooperative stop: flip the flag after the first completed task; the
   worker domains observe it through the shared heap and skip the rest
   of the grid, returning a clean partial outcome. *)
let test_domain_stop_partial () =
  let seen = Atomic.make 0 in
  let o =
    Sweep_pool.map_collect ~backend:dom ~jobs:2
      ~stop:(fun () -> Atomic.get seen > 0)
      (fun x ->
        Atomic.incr seen;
        x * 2)
      (List.init 64 (fun i -> i))
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

(* on_progress fires from worker domains: exactly once per task, and each
   call gets its own prog_done (a separate increment and read could hand
   two domains the same count). *)
let test_domain_progress () =
  let n = 500 in
  let calls = Atomic.make 0 in
  let seen = Array.make n 0 in
  let o =
    Sweep_pool.map_collect ~backend:dom ~jobs:4
      ~on_progress:(fun p ->
        let k = Atomic.fetch_and_add calls 1 in
        if k < n then seen.(k) <- p.Sweep_pool.prog_done)
      (fun x -> x)
      (List.init n Fun.id)
  in
  Alcotest.(check bool) "all tasks completed" true
    (Array.for_all Option.is_some o.results);
  Alcotest.(check int) "callback fired exactly n times" n (Atomic.get calls);
  Alcotest.(check (list int)) "prog_done values distinct, 1..n"
    (List.init n succ)
    (List.sort compare (Array.to_list seen))

(* SIGINT in-process: the first task raises the signal against the whole
   process; the handler (a monotonic ref flip, as installed by netsim)
   may run on any domain, and every worker's next stop poll observes it.
   In-flight tasks finish and are kept. *)
let test_domain_sigint_stop () =
  let hit = ref false in
  let old =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> hit := true))
  in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigint old)
  @@ fun () ->
  let fired = Atomic.make false in
  let o =
    Sweep_pool.map_collect ~backend:dom ~jobs:2
      ~stop:(fun () -> !hit)
      (fun x ->
        if not (Atomic.exchange fired true) then begin
          Unix.kill (Unix.getpid ()) Sys.sigint;
          (* Allocate until the handler has run somewhere: signal
             delivery happens at poll points, so spin on an allocation
             (bounded — a second is an eternity for a pending signal). *)
          let t0 = Unix.gettimeofday () in
          while (not !hit) && Unix.gettimeofday () -. t0 < 1.0 do
            ignore (Sys.opaque_identity (ref 0))
          done
        end;
        x + 100)
      (List.init 64 (fun i -> i))
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
  Alcotest.(check (list Alcotest.reject)) "no spurious point failures" []
    o.point_failures

(* ---------------- Random grids ----------------
   The qcheck property: for random task grids and job counts, the
   domain pool is exactly List.map — order, values, length. *)

let prop_domain_matches_map =
  QCheck.Test.make ~name:"domain pool equals List.map on random grids"
    ~count:40
    QCheck.(pair (small_list small_int) (int_range 1 6))
    (fun (xs, jobs) ->
      let f x = ((5 * x) - 7, string_of_int x) in
      Sweep_pool.map ~backend:dom ~jobs f xs = List.map f xs)

let suite =
  ( "domain-safety",
    [
      Alcotest.test_case "netsim sweep SIGINT exits 130" `Slow
        test_cli_sigint_exit_130;
      Alcotest.test_case "byte-identical across backends x jobs" `Slow
        test_backend_bytes_identical;
      Alcotest.test_case "domain pool matches map" `Quick
        test_domain_matches_map;
      Alcotest.test_case "domain task exception" `Quick
        test_domain_task_exception;
      Alcotest.test_case "domain progress" `Quick test_domain_progress;
    ]
    @ (if Sweep_pool.domain_backend_available then
         [
           Alcotest.test_case "domain cooperative stop" `Quick
             test_domain_stop_partial;
           Alcotest.test_case "domain SIGINT stop" `Quick
             test_domain_sigint_stop;
         ]
       else [])
    @ [ QCheck_alcotest.to_alcotest prop_domain_matches_map ] )
