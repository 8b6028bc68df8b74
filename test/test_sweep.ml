(* lib/sweep + lib/sweep/pool: the parallel fan-out must be invisible in
   the results — same values, same order, same bytes — for any executor
   and any job count.  The dead-worker and stop tests pin
   [~backend:Fork]: worker processes only exist there.  Domain-executor
   coverage lives in test_domain_safety.ml. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ---------------- Sweep_pool ---------------- *)

(* Seq and Fork only: on OCaml 5 the runtime permanently forbids
   Unix.fork once any domain has ever been spawned in the process, so
   every fork-backend test in this binary must run before the first
   domain-backend test.  This suite therefore stays domain-free; the
   Domain equivalents of these checks live in test_domain_safety.ml,
   registered after this suite in test_main.ml. *)
let backends = [ ("seq", Sweep_pool.Seq); ("fork", Sweep_pool.Fork) ]

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

(* Results far larger than a pipe buffer and the parent's 64 KiB read
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
    outcome.point_failures

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
      Alcotest.test_case "pool cooperative stop" `Quick
        test_pool_stop_interrupts;
      Alcotest.test_case "pool stop mid-share" `Quick test_pool_stop_mid_share;
      Alcotest.test_case "driver jobs 1 vs 2 identical" `Quick
        test_driver_jobs_identical;
      Alcotest.test_case "json special floats" `Quick test_json_special_floats;
      Alcotest.test_case "grids registry" `Quick test_grids_registry;
    ] )
