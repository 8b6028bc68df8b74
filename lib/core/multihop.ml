type spec = {
  num_switches : int;
  connections : int;
  tau : float;
  buffer : int option;
  duration : float;
  warmup : float;
  seed : int;
}

let default_spec =
  {
    num_switches = 4;
    connections = 48;
    tau = 0.01;
    buffer = Some 30;
    duration = 400.;
    warmup = 150.;
    seed = 42;
  }

type result = {
  spec : spec;
  chain : Net.Topology.chain;
  conns : Tcp.Connection.t array;
  trunk_queues : (Trace.Queue_trace.t * Trace.Queue_trace.t) array;
  trunk_utils : (float * float) array;
  trunk_deps : (Trace.Dep_log.t * Trace.Dep_log.t) array;
  drops : Trace.Drop_log.t;
  t0 : float;
  t1 : float;
}

(* Assign endpoints so path lengths cycle through 1, 2 and 3 trunk hops and
   directions alternate, roughly the traffic pattern described in §5. *)
let endpoints ~num_switches ~index =
  let hops = 1 + (index mod (num_switches - 1)) in
  let starts = num_switches - hops in
  let origin = index / (num_switches - 1) mod starts in
  if index mod 2 = 0 then (origin, origin + hops) else (origin + hops, origin)

let run spec =
  if spec.num_switches < 2 then invalid_arg "Multihop.run: too few switches";
  if spec.duration <= spec.warmup then invalid_arg "Multihop.run: bad window";
  let sim = Engine.Sim.create () in
  let params = Net.Topology.params ~tau:spec.tau ~buffer:spec.buffer () in
  let chain = Net.Topology.chain sim params ~num_switches:spec.num_switches in
  let rng = Engine.Rng.create ~seed:spec.seed in
  let conns =
    Array.init spec.connections (fun i ->
        let src_idx, dst_idx = endpoints ~num_switches:spec.num_switches ~index:i in
        let config =
          Tcp.Config.make ~conn:(i + 1) ~src_host:chain.hosts.(src_idx)
            ~dst_host:chain.hosts.(dst_idx)
            ~start_time:(Engine.Rng.uniform rng ~lo:0. ~hi:10.)
            ()
        in
        Tcp.Connection.create chain.cnet config)
  in
  let now = Engine.Sim.now sim in
  let trunk_queues =
    Array.map
      (fun (fwd, bwd) ->
        (Trace.Queue_trace.attach fwd ~now, Trace.Queue_trace.attach bwd ~now))
      chain.trunks
  in
  let trunk_deps =
    Array.map
      (fun (fwd, bwd) -> (Trace.Dep_log.attach fwd, Trace.Dep_log.attach bwd))
      chain.trunks
  in
  let drops = Trace.Drop_log.create () in
  List.iter (Trace.Drop_log.watch drops) (Net.Network.links chain.cnet);
  let validation =
    if Runner.env_forces_validation () then
      Some
        (Validate.Harness.attach chain.cnet ~conns:(Array.to_list conns))
    else None
  in
  let meters = ref [||] in
  ignore
    (Engine.Sim.at sim ~time:spec.warmup (fun () ->
         let now = Engine.Sim.now sim in
         meters :=
           Array.map
             (fun (fwd, bwd) ->
               ( Trace.Util_meter.start fwd ~now,
                 Trace.Util_meter.start bwd ~now ))
             chain.trunks)
      : Engine.Sim.handle);
  Engine.Sim.run sim ~until:spec.duration;
  let now = Engine.Sim.now sim in
  (match validation with
   | None -> ()
   | Some harness ->
     let report = Validate.Harness.finalize harness ~now in
     if not (Validate.Report.is_clean report) then begin
       prerr_endline "netsim validation FAILED for multihop run:";
       prerr_endline (Validate.Report.to_string report);
       raise
         (Runner.Validation_failed
            ("multihop run: " ^ Validate.Report.summary report))
     end);
  let trunk_utils =
    Array.map
      (fun (fwd, bwd) ->
        ( Trace.Util_meter.utilization fwd ~now,
          Trace.Util_meter.utilization bwd ~now ))
      !meters
  in
  {
    spec;
    chain;
    conns;
    trunk_queues;
    trunk_utils;
    trunk_deps;
    drops;
    t0 = spec.warmup;
    t1 = spec.duration;
  }

let hops result i =
  let src_idx, dst_idx =
    endpoints ~num_switches:result.spec.num_switches ~index:i
  in
  abs (dst_idx - src_idx)
