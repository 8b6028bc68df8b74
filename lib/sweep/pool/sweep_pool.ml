(* Deterministic parallel task pool with three executors (see DESIGN.md
   §6j):

     Seq     plain in-process loop
     Fork    forked worker processes streaming Marshal values back over
             pipes (this file) — the fallback for builds without domains
     Domain  shared-memory OCaml 5 domains ({!Domain_backend}; on 4.14
             the stub reports [available = false])

   [map ~jobs f xs] computes [List.map f xs] under every executor.
   Results are bit-identical regardless of the executor and the job
   count because the assignment of work never affects a result: task [i]
   is always [f xs.(i)] (computed in a fork-time copy of the parent heap,
   in a domain sharing it, or in the parent itself), every per-task RNG
   in this codebase is seeded from the task itself (the scenario), and
   results are reassembled by task index, not arrival order.

   The fork executor is deliberately plain: a task that raises is a
   point failure (as under every executor), a worker that dies turns its
   unreturned tasks into point failures naming its wait status, and
   nothing is respawned or re-run.  Points are pure OCaml, and runaway
   points are stopped in-process by [Sim.run_guarded]'s budgets. *)

let default_jobs () =
  match Sys.getenv_opt "NETSIM_JOBS" with
  | None | Some "" -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> 1)

let cores () =
  (* Best-effort physical parallelism estimate, for benchmark metadata
     only (never affects results). *)
  try
    let ic = open_in "/proc/cpuinfo" in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.length line >= 9 && String.sub line 0 9 = "processor" then
           incr n
       done
     with End_of_file -> ());
    close_in ic;
    max 1 !n
  with Sys_error _ -> 1

let available_cores () =
  (* Cores this process may actually run on: the popcount of the CPU
     affinity mask (cgroup cpusets, taskset, CI runners), which is what
     bounds real parallelism — [cores ()] reports the hardware.  The
     mask is the "Cpus_allowed:" line of /proc/self/status: comma-
     separated hex words, e.g. "ff" or "ffffffff,00000003".  Falls back
     to [cores ()] when unreadable (non-Linux). *)
  let popcount_hex_digit c =
    match c with
    | '0' -> 0 | '1' | '2' | '4' | '8' -> 1
    | '3' | '5' | '6' | '9' | 'a' | 'A' | 'c' | 'C' -> 2
    | '7' | 'b' | 'B' | 'd' | 'D' | 'e' | 'E' -> 3
    | 'f' | 'F' -> 4
    | _ -> 0
  in
  try
    let ic = open_in "/proc/self/status" in
    let found = ref None in
    (try
       while true do
         let line = input_line ic in
         let prefix = "Cpus_allowed:" in
         let plen = String.length prefix in
         if String.length line > plen && String.sub line 0 plen = prefix then begin
           let bits = ref 0 in
           String.iter
             (fun c -> bits := !bits + popcount_hex_digit c)
             (String.sub line plen (String.length line - plen));
           found := Some !bits
         end
       done
     with End_of_file -> ());
    close_in ic;
    match !found with Some n when n >= 1 -> n | _ -> cores ()
  with Sys_error _ -> cores ()

type backend = Seq | Fork | Domain

let domain_backend_available = Domain_backend.available

(* The executor actually used: [jobs <= 1] is always sequential, domains
   when built in, else forked workers, else (non-Unix) sequential.  An
   explicit request degrades the same way — never to different results,
   only to a different executor. *)
let executor ?(backend = Domain) ~jobs () =
  let b = if jobs <= 1 then Seq else backend in
  let b = if b = Domain && not Domain_backend.available then Fork else b in
  if b = Fork && Sys.os_type <> "Unix" then
    if Domain_backend.available then Domain else Seq
  else b

type point_failure = { point : int; exn_text : string; backtrace : string }
type error = { message : string; point_failures : point_failure list }

exception Error of error

let error_to_string (e : error) =
  String.concat "\n  "
    (("Sweep_pool: " ^ e.message)
    :: List.map
         (fun p -> Printf.sprintf "point %d: %s" p.point p.exn_text)
         e.point_failures)

let () =
  Printexc.register_printer (function
    | Error e -> Some (error_to_string e)
    | _ -> None)

(* Waitpid reports OCaml's own signal numbering (Sys.sigkill = -7 …);
   name the common ones rather than leak the encoding. *)
let signal_name s =
  List.assoc_opt s
    [
      (Sys.sigkill, "SIGKILL"); (Sys.sigterm, "SIGTERM");
      (Sys.sigint, "SIGINT"); (Sys.sigsegv, "SIGSEGV");
      (Sys.sigabrt, "SIGABRT"); (Sys.sigpipe, "SIGPIPE");
      (Sys.sigstop, "SIGSTOP");
    ]
  |> Option.value ~default:(Printf.sprintf "signal %d (ocaml numbering)" s)

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s -> "was killed by " ^ signal_name s
  | Unix.WSTOPPED s -> "was stopped by " ^ signal_name s

type progress = { prog_done : int; prog_total : int; prog_running : int }

type 'b outcome = {
  results : 'b option array;
  point_failures : point_failure list;
  interrupted : bool;
}

(* One message per point on a worker's pipe. *)
type 'b message = int * ('b, string * string) result

(* Runs in the forked child; never returns.  [_exit], not [exit]: the
   child must not run the parent's [at_exit] handlers a second time. *)
let worker ~wr ~f ~tasks ~share ~stop =
  let oc = Unix.out_channel_of_descr wr in
  let send i r =
    let m =
      try Marshal.to_string ((i, r) : _ message) []
      with e ->
        (* A result that cannot cross the pipe fails only its point. *)
        let why = "unmarshalable result: " ^ Printexc.to_string e in
        Marshal.to_string ((i, Error (why, "")) : _ message) []
    in
    output_string oc m;
    flush oc
  in
  let run i =
    match f tasks.(i) with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e, Printexc.get_backtrace ())
  in
  match List.iter (fun i -> if not (stop ()) then send i (run i)) share with
  | () -> Unix._exit 0
  | exception _ -> Unix._exit 1

type child = {
  slot : int;
  pid : int;
  fd : Unix.file_descr;
  share : int list;
  mutable pending : string;  (* bytes of a message not yet complete *)
}

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let map_collect ?backend ?(jobs = 1)
    ?(on_progress = fun (_ : progress) -> ()) ?(stop = fun () -> false) f xs =
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  let results = Array.make n None in
  let failures = ref [] in
  let interrupted = ref false in
  (* Atomic because Domain workers report completions concurrently;
     [fetch_and_add] gives each report its own count. *)
  let done_count = Atomic.make 0 in
  let notify running =
    let d = 1 + Atomic.fetch_and_add done_count 1 in
    on_progress { prog_done = d; prog_total = n; prog_running = running }
  in
  let fail point exn_text backtrace =
    failures := { point; exn_text; backtrace } :: !failures
  in
  let jobs = min jobs n in
  (match executor ?backend ~jobs () with
   | Seq ->
     Array.iteri
       (fun i x ->
         if stop () then interrupted := true
         else begin
           (match f x with
            | r -> results.(i) <- Some r
            | exception e ->
              fail i (Printexc.to_string e) (Printexc.get_backtrace ()));
           notify 0
         end)
       tasks
   | Domain ->
     (* No worker processes, so a crash takes the whole process down;
        a task exception is a point failure as in the sequential path. *)
     let task_failures, stopped =
       Domain_backend.run ~jobs ~stop
         ~on_result:(fun _ ->
           notify (max 0 (min jobs (n - 1 - Atomic.get done_count))))
         f tasks results
     in
     List.iter
       (fun (tf : Domain_backend.task_failure) ->
         fail tf.index tf.exn_text tf.backtrace)
       task_failures;
     interrupted := stopped
   | Fork ->
     (* Anything buffered before a fork would be flushed once per
        process; push it out first. *)
     flush stdout;
     flush stderr;
     let children = ref [] in
     let accounted = Array.make n false in
     let account i =
       accounted.(i) <- true;
       notify (List.length !children)
     in
     let bank ((i, r) : _ message) =
       (match r with
        | Ok v -> results.(i) <- Some v
        | Error (text, bt) -> fail i text bt);
       account i
     in
     (* Every index of [share] that never came back fails with [why]. *)
     let lose share why =
       List.iter
         (fun i ->
           if not accounted.(i) then begin
             fail i why "";
             account i
           end)
         share
     in
     (* Worker [w] owns w, w+jobs, w+2*jobs, ...: striding balances grids
        whose points get slower along one axis. *)
     for w = 0 to jobs - 1 do
       let share = List.filter (fun i -> i mod jobs = w) (List.init n Fun.id) in
       match Unix.pipe () with
       | exception Unix.Unix_error (e, _, _) ->
         lose share ("pipe: " ^ Unix.error_message e)
       | rd, wr -> (
         match Unix.fork () with
         | exception Unix.Unix_error (e, _, _) ->
           Unix.close rd;
           Unix.close wr;
           lose share ("fork: " ^ Unix.error_message e)
         | 0 ->
           Unix.close rd;
           List.iter (fun c -> Unix.close c.fd) !children;
           worker ~wr ~f ~tasks ~share ~stop
         | pid ->
           Unix.close wr;
           let c = { slot = w; pid; fd = rd; share; pending = "" } in
           children := c :: !children)
     done;
     (* Peel every complete Marshal value off [s] from [pos]; return the
        incomplete tail. *)
     let rec drain s pos =
       let avail = String.length s - pos in
       let size =
         if avail < Marshal.header_size then max_int
         else Marshal.total_size (Bytes.unsafe_of_string s) pos
       in
       if size > avail then String.sub s pos avail
       else begin
         bank (Marshal.from_string s pos);
         drain s (pos + size)
       end
     in
     (* A worker that exited cleanly under a stop request skipped the rest
        of its share on purpose. *)
     let reap c =
       Unix.close c.fd;
       let status = waitpid c.pid in
       children := List.filter (fun c' -> c' != c) !children;
       if not (status = Unix.WEXITED 0 && stop ()) then
         lose c.share
           (Printf.sprintf "worker %d (pid %d) %s before returning it" c.slot
              c.pid (status_to_string status))
     in
     let chunk = Bytes.create 65536 in
     while !children <> [] do
       match Unix.select (List.map (fun c -> c.fd) !children) [] [] (-1.) with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | ready, _, _ ->
         List.iter
           (fun c ->
             if List.mem c.fd ready then
               match Unix.read c.fd chunk 0 (Bytes.length chunk) with
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
               | 0 -> reap c
               | k ->
                 c.pending <- drain (c.pending ^ Bytes.sub_string chunk 0 k) 0)
           !children
     done;
     interrupted := stop ());
  {
    results;
    point_failures =
      List.sort (fun a b -> compare a.point b.point) !failures;
    interrupted = !interrupted;
  }

let map ?backend ?jobs f xs =
  let o = map_collect ?backend ?jobs f xs in
  let missing =
    List.filter (fun i -> Option.is_none o.results.(i))
      (List.init (Array.length o.results) Fun.id)
  in
  if o.point_failures <> [] || missing <> [] then
    raise
      (Error
         {
           message =
             (match o.point_failures with
              | [] ->
                "no result for point(s) "
                ^ String.concat "," (List.map string_of_int missing)
              | pfs -> Printf.sprintf "%d point(s) failed" (List.length pfs));
           point_failures = o.point_failures;
         });
  Array.to_list (Array.map Option.get o.results)
