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

type chain = {
  cnet : Network.t;
  hosts : int array;
  switches : int array;
  trunks : (Link.t * Link.t) array;
}

(* [numbered "sw" 0] is "sw1".  The digits are made here, not by the
   formatter behind [string_of_int] or [Printf]: a topology is built on
   every run's cold set-up path, where calling it cost a fig-3 set-up a
   fifth more (bench/e2e [setup_s]). *)
let numbered prefix i =
  let rec digits n acc =
    let acc = String.make 1 (Char.chr (Char.code '0' + (n mod 10))) ^ acc in
    if n < 10 then acc else digits (n / 10) acc
  in
  prefix ^ digits (i + 1) ""

let chain sim p ~num_switches =
  if num_switches < 2 then invalid_arg "Topology.chain: need >= 2 switches";
  let net = Network.create sim in
  let switches =
    Array.init num_switches (fun i ->
        Network.add_switch net ~name:(numbered "sw" i))
  in
  let trunks =
    Array.init (num_switches - 1) (fun i ->
        Network.add_duplex ~discipline:p.gateway net ~src:switches.(i)
          ~dst:switches.(i + 1) ~bandwidth:bottleneck_bw ~prop_delay:p.tau
          ~buffer:p.buffer)
  in
  let hosts =
    Array.init num_switches (fun i ->
        attach_host net ~name:(numbered "host" i) ~switch:switches.(i))
  in
  Routing.compute net;
  { cnet = net; hosts; switches; trunks }

let dumbbell sim p =
  let c = chain sim p ~num_switches:2 in
  let fwd, bwd = c.trunks.(0) in
  { net = c.cnet; host1 = c.hosts.(0); host2 = c.hosts.(1);
    switch1 = c.switches.(0); switch2 = c.switches.(1); fwd; bwd }
