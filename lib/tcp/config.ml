let data_size = 500
let delack_timeout = 0.2
let dupack_threshold = 3

type t = {
  conn : int;
  src_host : int;
  dst_host : int;
  ack_size : int;
  maxwnd : int;
  cc : Cc.spec;
  start_time : float;
  delayed_ack : bool;
  loss_detection : bool;
  rto_params : Rto.params;
  pacing : float option;
  flow_size : int option;
  rtt_skew : float;
}

let make ~conn ~src_host ~dst_host ?(ack_size = 50) ?(maxwnd = 1000)
    ?(cc = Cc.spec "tahoe") ?(start_time = 0.) ?(delayed_ack = false)
    ?(loss_detection = true) ?(rto_params = Rto.default_params)
    ?(pacing = None) ?(flow_size = None) ?(rtt_skew = 0.) () =
  if ack_size < 0 then invalid_arg "Config.make: negative ack_size";
  if start_time < 0. then invalid_arg "Config.make: negative start_time";
  (match pacing with
   | Some interval when interval <= 0. ->
     invalid_arg "Config.make: pacing interval must be positive"
   | _ -> ());
  (match flow_size with
   | Some n when n <= 0 -> invalid_arg "Config.make: flow_size must be positive"
   | _ -> ());
  if rtt_skew < 0. then invalid_arg "Config.make: negative rtt_skew";
  (* Instantiate once now so a bad spec (unknown name, bad parameter,
     maxwnd < 2) fails the run up front rather than at sender creation. *)
  ignore (Cc_zoo.make cc ~maxwnd : Cc.t);
  {
    conn;
    src_host;
    dst_host;
    ack_size;
    maxwnd;
    cc;
    start_time;
    delayed_ack;
    loss_detection;
    rto_params;
    pacing;
    flow_size;
    rtt_skew;
  }
