type node_kind = Host | Switch

type node = {
  node_id : int;
  name : string;
  kind : node_kind;
  proc_delay : float;
  mutable out : Link.t list;
  mutable routes : Link.t option array;  (* dst node id -> outgoing link *)
  endpoints : (Packet.t -> unit) Engine.Int_tbl.t;  (* conn -> handler *)
}

type t = {
  sim : Engine.Sim.t;
  mutable nodes : node array;  (* indexed by node id *)
  mutable all_links : Link.t list;  (* reverse order of creation *)
  mutable next_link_id : int;
  mutable next_packet_id : int;
  mutable injected : int;
  mutable delivered : int;
  mutable inject_hooks : (float -> Packet.t -> unit) list;
  mutable deliver_hooks : (float -> Packet.t -> unit) list;
  proc : Delay_line.t;  (* packets inside host processing *)
}

(* Builds the record; [create] below ties the host-processing knot. *)
let make sim =
  {
    sim;
    nodes = [||];
    all_links = [];
    next_link_id = 0;
    next_packet_id = 0;
    injected = 0;
    delivered = 0;
    inject_hooks = [];
    deliver_hooks = [];
    proc = Delay_line.create sim;
  }

let sim t = t.sim
let injected t = t.injected
let delivered t = t.delivered
let on_inject t f = t.inject_hooks <- f :: t.inject_hooks
let on_deliver t f = t.deliver_hooks <- f :: t.deliver_hooks

(* A direct walk rather than [List.iter] over a closure: firing boxes the
   current time once and allocates nothing else. *)
let rec call_hooks hooks now p =
  match hooks with
  | [] -> ()
  | f :: rest ->
    f now p;
    call_hooks rest now p

let fire_inject t p =
  t.injected <- t.injected + 1;
  match t.inject_hooks with
  | [] -> ()
  | hooks -> call_hooks hooks (Engine.Sim.now t.sim) p

let fire_deliver t p =
  t.delivered <- t.delivered + 1;
  match t.deliver_hooks with
  | [] -> ()
  | hooks -> call_hooks hooks (Engine.Sim.now t.sim) p

(* Out of line, so that [node] inlines into the per-hop path. *)
let[@inline never] unknown_node id =
  invalid_arg (Printf.sprintf "Network: unknown node id %d" id)

let[@inline] node t id =
  if id < 0 || id >= Array.length t.nodes then unknown_node id;
  Array.unsafe_get t.nodes id

(* Nodes are added while a topology is built, a handful per network, so
   growing the array by one each time costs nothing that matters. *)
let add_node t ~name ~kind ~proc_delay =
  let node_id = Array.length t.nodes in
  let n =
    {
      node_id;
      name;
      kind;
      proc_delay;
      out = [];
      routes = [||];
      endpoints = Engine.Int_tbl.create 8;
    }
  in
  t.nodes <- Array.append t.nodes [| n |];
  node_id

let add_host t ~name ~proc_delay =
  if proc_delay < 0. then invalid_arg "Network.add_host: negative proc_delay";
  add_node t ~name ~kind:Host ~proc_delay

let add_switch t ~name = add_node t ~name ~kind:Switch ~proc_delay:0.

let node_count t = Array.length t.nodes

let node_name t id = (node t id).name
let node_kind t id = (node t id).kind
let links t = List.rev t.all_links
let out_links t id = List.rev (node t id).out

(* Routes are indexed by destination node id, which the network hands
   out densely from 0, so a hop reads an array slot instead of hashing. *)
let set_route t ~node:n ~dst ~link =
  let n = node t n in
  ignore (node t dst : node);
  if dst >= Array.length n.routes then begin
    let routes = Array.make (Array.length t.nodes) None in
    Array.blit n.routes 0 routes 0 (Array.length n.routes);
    n.routes <- routes
  end;
  n.routes.(dst) <- Some link

(* The option read is the one [set_route] stored: a lookup allocates
   nothing. *)
let[@inline] route_of n dst =
  if dst >= 0 && dst < Array.length n.routes then Array.unsafe_get n.routes dst
  else None

let route t ~node:n ~dst = route_of (node t n) dst

let register_endpoint t ~host ~conn handler =
  let n = node t host in
  if n.kind <> Host then invalid_arg "Network.register_endpoint: not a host";
  Engine.Int_tbl.replace n.endpoints conn handler

(* Hand a packet to its transport endpoint, once the destination host's
   processing delay (if any) has elapsed. *)
let hand_over t (p : Packet.t) =
  let n = node t p.dst in
  match Engine.Int_tbl.find n.endpoints p.conn with
  | handler ->
    fire_deliver t p;
    handler p
  | exception Not_found ->
    failwith
      (Printf.sprintf "Network: no endpoint for conn %d at host %s" p.conn
         n.name)

let create sim =
  let t = make sim in
  Delay_line.set_deliver t.proc (hand_over t);
  t

(* Packet arrival at a node, after the link's propagation delay. *)
let rec arrive t node_id (p : Packet.t) =
  let n = node t node_id in
  match n.kind with
  | Switch -> forward t n p
  | Host ->
    if p.dst <> node_id then
      failwith
        (Printf.sprintf "Network: host %s received packet for node %d" n.name
           p.dst);
    if n.proc_delay > 0. then Delay_line.push t.proc p ~delay:n.proc_delay
    else hand_over t p

and forward _t n (p : Packet.t) =
  match route_of n p.dst with
  | Some link -> ignore (Link.send link p : [ `Ok | `Dropped ])
  | None ->
    failwith
      (Printf.sprintf "Network: switch %s has no route to node %d" n.name p.dst)

let add_link ?(discipline = Discipline.Fifo) t ~src ~dst ~bandwidth
    ~prop_delay ~buffer =
  let src_node = node t src in
  let _ = node t dst in
  let id = t.next_link_id in
  t.next_link_id <- id + 1;
  (* Concatenated, not formatted: set-up runs cold on every run, where a
     call into [Printf] costs microseconds (bench/e2e [setup_s]). *)
  let name = node_name t src ^ "->" ^ node_name t dst in
  let link =
    Link.create ~discipline t.sim ~id ~name ~src ~dst ~bandwidth ~prop_delay
      ~buffer
  in
  Link.set_deliver link (fun p -> arrive t dst p);
  src_node.out <- link :: src_node.out;
  t.all_links <- link :: t.all_links;
  link

let add_duplex ?(discipline = Discipline.Fifo) t ~src ~dst ~bandwidth
    ~prop_delay ~buffer =
  let fwd = add_link ~discipline t ~src ~dst ~bandwidth ~prop_delay ~buffer in
  let bwd =
    add_link ~discipline t ~src:dst ~dst:src ~bandwidth ~prop_delay ~buffer
  in
  (fwd, bwd)

let send_from_host t ~host (p : Packet.t) =
  let n = node t host in
  if n.kind <> Host then invalid_arg "Network.send_from_host: not a host";
  match route_of n p.dst with
  | Some link ->
    fire_inject t p;
    ignore (Link.send link p : [ `Ok | `Dropped ])
  | None ->
    failwith
      (Printf.sprintf "Network: host %s has no route to node %d" n.name p.dst)

let fresh_packet_id t =
  let id = t.next_packet_id in
  t.next_packet_id <- id + 1;
  id

let make_packet t ~conn ~kind ~seq ~size ~src ~dst ~retransmit =
  {
    Packet.id = fresh_packet_id t;
    conn;
    kind;
    seq;
    size;
    src;
    dst;
    retransmit;
  }
