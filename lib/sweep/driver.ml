type point = {
  id : string;
  params : (string * float) list;
  scenario : Core.Scenario.t;
}

let point ?id ?(params = []) scenario =
  let id =
    match id with Some i -> i | None -> scenario.Core.Scenario.name
  in
  { id; params; scenario }

(* Sweep points always carry a metrics registry (counters and gauges are
   cheap); the snapshot rides the summary across the worker pipe as plain
   data.  Tracing stays off — sinks are closures and could not cross the
   pipe anyway. *)
let run_point ?budget ?bundle_dir p =
  Summary.of_result ~id:p.id ~params:p.params
    (Core.Runner.run ~obs:(Obs.Probe.setup ()) ?budget ?bundle_dir p.scenario)

let run ?jobs ?budget ?bundle_dir points =
  let jobs = match jobs with Some j -> j | None -> Sweep_pool.default_jobs () in
  Sweep_pool.map ~jobs (run_point ?budget ?bundle_dir) points

let run_collect ?jobs ?on_progress ?stop ?budget ?bundle_dir points =
  let jobs = match jobs with Some j -> j | None -> Sweep_pool.default_jobs () in
  Sweep_pool.map_collect ~jobs ?on_progress ?stop
    (run_point ?budget ?bundle_dir)
    points

let to_json = Summary.list_to_json

let print_table summaries =
  Printf.printf "%-18s %9s %9s %7s %14s %7s %7s\n" "point" "util-fwd"
    "util-bwd" "drops" "phase" "q1-max" "q2-max";
  List.iter
    (fun (s : Summary.t) ->
      Printf.printf "%-18s %8.1f%% %8.1f%% %7d %14s %7.0f %7.0f\n" s.id
        (100. *. s.util_fwd) (100. *. s.util_bwd) s.drops_window s.phase
        s.q1_max s.q2_max)
    summaries
