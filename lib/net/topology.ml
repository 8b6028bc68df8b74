let bottleneck_bw = Engine.Units.kbps 50.
let host_bw = Engine.Units.mbps 10.
let host_delay = Engine.Units.ms 0.1
let proc_delay = Engine.Units.ms 0.1

type params = { tau : float; buffer : int option; gateway : Discipline.kind }

let params ?(gateway = Discipline.Fifo) ~tau ~buffer () =
  { tau; buffer; gateway }

type dumbbell = {
  net : Network.t;
  host1 : int;
  host2 : int;
  switch1 : int;
  switch2 : int;
  fwd : Link.t;
  bwd : Link.t;
}

let attach_host net ~name ~switch =
  let host = Network.add_host net ~name ~proc_delay in
  let _ =
    Network.add_duplex net ~src:host ~dst:switch ~bandwidth:host_bw
      ~prop_delay:host_delay ~buffer:None
  in
  host

let dumbbell sim p =
  let net = Network.create sim in
  let switch1 = Network.add_switch net ~name:"sw1" in
  let switch2 = Network.add_switch net ~name:"sw2" in
  let fwd, bwd =
    Network.add_duplex ~discipline:p.gateway net ~src:switch1 ~dst:switch2
      ~bandwidth:bottleneck_bw ~prop_delay:p.tau ~buffer:p.buffer
  in
  let host1 = attach_host net ~name:"host1" ~switch:switch1 in
  let host2 = attach_host net ~name:"host2" ~switch:switch2 in
  Routing.compute net;
  { net; host1; host2; switch1; switch2; fwd; bwd }

type chain = {
  cnet : Network.t;
  hosts : int array;
  switches : int array;
  trunks : (Link.t * Link.t) array;
}

let chain sim p ~num_switches =
  if num_switches < 2 then invalid_arg "Topology.chain: need >= 2 switches";
  let net = Network.create sim in
  let switches =
    Array.init num_switches (fun i ->
        Network.add_switch net ~name:(Printf.sprintf "sw%d" (i + 1)))
  in
  let trunks =
    Array.init (num_switches - 1) (fun i ->
        Network.add_duplex ~discipline:p.gateway net ~src:switches.(i)
          ~dst:switches.(i + 1) ~bandwidth:bottleneck_bw ~prop_delay:p.tau
          ~buffer:p.buffer)
  in
  let hosts =
    Array.init num_switches (fun i ->
        attach_host net
          ~name:(Printf.sprintf "host%d" (i + 1))
          ~switch:switches.(i))
  in
  Routing.compute net;
  { cnet = net; hosts; switches; trunks }
