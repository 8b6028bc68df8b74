type direction = Forward | Reverse

type conn_spec = {
  dir : direction;
  cc : Tcp.Cc.spec;
  start_time : float;
  delayed_ack : bool;
  ack_size : int;
  loss_detection : bool;
  maxwnd : int;
  rto_params : Tcp.Rto.params;
  pacing : float option;
  rtt_skew : float;
  flow_size : int option;
}

let conn ?(cc = Tcp.Cc.spec "tahoe") ?(start_time = 0.)
    ?(delayed_ack = false) ?(ack_size = 50) ?(loss_detection = true)
    ?(maxwnd = 1000) ?(rto_params = Tcp.Rto.default_params) ?(pacing = None)
    ?(rtt_skew = 0.) ?(flow_size = None) dir =
  {
    dir;
    cc;
    start_time;
    delayed_ack;
    ack_size;
    loss_detection;
    maxwnd;
    rto_params;
    pacing;
    rtt_skew;
    flow_size;
  }

let fixed_conn ?(start_time = 0.) ~window dir =
  {
    dir;
    cc = Tcp.Cc.spec ~params:[ ("w", float_of_int window) ] "fixed";
    start_time;
    delayed_ack = false;
    ack_size = 50;
    loss_detection = false;
    maxwnd = max 1000 (window + 1);
    rto_params = Tcp.Rto.default_params;
    pacing = None;
    rtt_skew = 0.;
    flow_size = None;
  }

let fixed_pair ?(ack_size = 50) ~buffer ~w1 ~w2 () =
  let loss_detection = buffer <> None in
  let conn window start_time dir =
    { (fixed_conn ~window ~start_time dir) with ack_size; loss_detection }
  in
  [ conn w1 0.37 Forward; conn w2 1.91 Reverse ]

type fault_site = Fwd_bottleneck | Bwd_bottleneck

type t = {
  name : string;
  tau : float;
  buffer : int option;
  gateway : Net.Discipline.kind;
  conns : conn_spec list;
  duration : float;
  warmup : float;
  sample_dt : float;
  validate : bool;
  faults : (fault_site * Faults.Spec.t) list;
  fault_seed : int;
}

let make ~name ~tau ~buffer ?(gateway = Net.Discipline.Fifo) ~conns
    ?(duration = 600.) ?(warmup = 200.) ?(sample_dt = 0.5)
    ?(validate = false) ?(faults = []) ?(fault_seed = 1) () =
  if conns = [] then invalid_arg "Scenario.make: no connections";
  List.iter
    (fun (what, check, v) ->
      Result.iter_error (fun msg -> invalid_arg ("Scenario.make: " ^ msg))
        (Args.check ~what check v))
    Args.[ ("tau", Non_negative, tau); ("warmup", Non_negative, warmup);
      ("duration", Positive, duration); ("sample_dt", Positive, sample_dt) ];
  if duration <= warmup then invalid_arg "Scenario.make: duration <= warmup";
  let sites = List.map fst faults in
  if List.length (List.sort_uniq compare sites) <> List.length sites then
    invalid_arg "Scenario.make: duplicate fault site";
  { name; tau; buffer; gateway; conns; duration; warmup; sample_dt; validate;
    faults; fault_seed }

let pipe t =
  Engine.Units.pipe_size
    ~rate_bps:Net.Topology.bottleneck_bw
    ~delay:t.tau ~packet_bytes:Tcp.Config.data_size

let data_tx =
  Engine.Units.transmission_time ~bytes:Tcp.Config.data_size
    ~rate_bps:Net.Topology.bottleneck_bw

let stagger ~step specs =
  List.mapi
    (fun i spec ->
      { spec with start_time = spec.start_time +. (float_of_int i *. step) })
    specs
