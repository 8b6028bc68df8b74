type counters = {
  mutable enq_data : int;
  mutable enq_ack : int;
  mutable drop_data : int;
  mutable drop_ack : int;
  mutable dep_data : int;
  mutable dep_ack : int;
  mutable dep_bytes : int;
  mutable faults : int;
}

type fault_event =
  | Fault_drop of string
  | Fault_duplicate
  | Fault_delay of float

type verdict = [ `Pass | `Drop of string | `Duplicate ]

type fault_plan = {
  ingress : Packet.t -> verdict;
  extra_delay : Packet.t -> float;
  clone : Packet.t -> Packet.t;
}

(* The per-packet pipeline is closure-free: the transmitter is one
   persistent [Engine.Sim.Timer] re-armed per serialization, and
   propagation is a {!Delay_line}.  The busy meter lives in a flat float
   array because assigning a float field of a mixed record boxes.
   [busy] says whether [in_service] is live: a departure only clears the
   flag, so the packet it leaves behind is stale and never read, and a
   hop stores one pointer into the link (at service start) rather than
   two. *)
type t = {
  sim : Engine.Sim.t;
  id : int;
  name : string;
  src : int;
  dst : int;
  bandwidth : float;
  prop_delay : float;
  queue : Discipline.t;
  mutable busy : bool;
  mutable in_service : Packet.t;  (* live while [busy] *)
  prop : Delay_line.t;
  meter : float array;  (* 0: busy_since; 1: busy_accum *)
  counters : counters;
  mutable enqueue_hooks : (float -> Packet.t -> int -> unit) list;
  mutable drop_hooks : (float -> Packet.t -> unit) list;
  mutable depart_hooks : (float -> Packet.t -> int -> unit) list;
  (* Fault injection (lib/faults).  [faults = None] is the default and the
     hot path: a single option check per send/departure. *)
  mutable faults : fault_plan option;
  mutable fault_hooks : (float -> fault_event -> Packet.t -> unit) list;
  mutable down : bool;
  tx_timer : Engine.Sim.Timer.timer;
}

let nop () = ()

(* Builds the record; [create] below ties the tx timer's knot. *)
let make ?(discipline = Discipline.Fifo) sim ~id ~name ~src ~dst ~bandwidth
    ~prop_delay ~buffer =
  if bandwidth <= 0. then invalid_arg "Link.create: bandwidth must be positive";
  if prop_delay < 0. then invalid_arg "Link.create: negative propagation delay";
  (match buffer with
   | Some b when b <= 0 -> invalid_arg "Link.create: buffer must be positive"
   | _ -> ());
  {
    sim;
    id;
    name;
    src;
    dst;
    bandwidth;
    prop_delay;
    queue = Discipline.create discipline ~capacity:buffer;
    busy = false;
    in_service = Packet.none;
    prop = Delay_line.create sim;
    meter = [| 0.; 0. |];
    counters =
      {
        enq_data = 0;
        enq_ack = 0;
        drop_data = 0;
        drop_ack = 0;
        dep_data = 0;
        dep_ack = 0;
        dep_bytes = 0;
        faults = 0;
      };
    enqueue_hooks = [];
    drop_hooks = [];
    depart_hooks = [];
    faults = None;
    fault_hooks = [];
    down = false;
    tx_timer = Engine.Sim.Timer.create sim nop;
  }

let set_deliver t f = Delay_line.set_deliver t.prop f
let id t = t.id
let name t = t.name
let src t = t.src
let dst t = t.dst
let bandwidth t = t.bandwidth
let prop_delay t = t.prop_delay
let discipline t = Discipline.kind t.queue
let capacity t = Discipline.capacity t.queue

(* Buffer occupancy includes the packet being serialized, matching the
   paper's capacity analysis C = floor(B + 2P). *)
let queue_length t = Discipline.length t.queue + Bool.to_int t.busy

let counters t = t.counters
let total_drops t = t.counters.drop_data + t.counters.drop_ack

let contents t =
  if t.busy then t.in_service :: Discipline.contents t.queue
  else Discipline.contents t.queue

let[@inline] tx_time t ~bytes =
  Engine.Units.transmission_time ~bytes ~rate_bps:t.bandwidth

let busy_time t ~now =
  t.meter.(1) +. (if t.busy then now -. t.meter.(0) else 0.)

let on_enqueue t f = t.enqueue_hooks <- f :: t.enqueue_hooks
let on_drop t f = t.drop_hooks <- f :: t.drop_hooks
let on_depart t f = t.depart_hooks <- f :: t.depart_hooks
let on_fault t f = t.fault_hooks <- f :: t.fault_hooks

(* Hooks are walked directly rather than by [List.iter] over a closure
   built per fire, and their arguments (the current time, the post-event
   queue length) are only computed when somebody is listening: a fire
   boxes the time once and allocates nothing else, and the no-observer
   run pays nothing beyond the empty-list check.  One walker per arity
   serves every hook list of that shape. *)
let rec call2 hooks a b =
  match hooks with
  | [] -> ()
  | f :: rest ->
    f a b;
    call2 rest a b

let rec call3 hooks a b c =
  match hooks with
  | [] -> ()
  | f :: rest ->
    f a b c;
    call3 rest a b c

let fire_fault t event p =
  t.counters.faults <- t.counters.faults + 1;
  match t.fault_hooks with
  | [] -> ()
  | hooks -> call3 hooks (Engine.Sim.now t.sim) event p

let fire_enqueue t p =
  match t.enqueue_hooks with
  | [] -> ()
  | hooks -> call3 hooks (Engine.Sim.now t.sim) p (queue_length t)

let fire_drop t p =
  match t.drop_hooks with
  | [] -> ()
  | hooks -> call2 hooks (Engine.Sim.now t.sim) p

let fire_depart t p =
  match t.depart_hooks with
  | [] -> ()
  | hooks -> call3 hooks (Engine.Sim.now t.sim) p (queue_length t)

let count_enq t (p : Packet.t) =
  match p.kind with
  | Packet.Data -> t.counters.enq_data <- t.counters.enq_data + 1
  | Packet.Ack -> t.counters.enq_ack <- t.counters.enq_ack + 1

let count_drop t (p : Packet.t) =
  match p.kind with
  | Packet.Data -> t.counters.drop_data <- t.counters.drop_data + 1
  | Packet.Ack -> t.counters.drop_ack <- t.counters.drop_ack + 1

let rec maybe_start t =
  if not t.busy then begin
    let p = Discipline.dequeue t.queue in
    if p != Packet.none then begin
      t.busy <- true;
      t.in_service <- p;
      t.meter.(0) <- Engine.Sim.now t.sim;
      Engine.Sim.Timer.set t.tx_timer ~delay:(tx_time t ~bytes:p.Packet.size)
    end
  end

and finish t =
  if not t.busy then failwith "Link: transmitter out of sync with queue";
  let p = t.in_service in
  let now = Engine.Sim.now t.sim in
  t.meter.(1) <- t.meter.(1) +. (now -. t.meter.(0));
  t.busy <- false;
  (match p.Packet.kind with
   | Packet.Data -> t.counters.dep_data <- t.counters.dep_data + 1
   | Packet.Ack -> t.counters.dep_ack <- t.counters.dep_ack + 1);
  t.counters.dep_bytes <- t.counters.dep_bytes + p.Packet.size;
  fire_depart t p;
  (match t.faults with
   | None -> Delay_line.push t.prop p ~delay:t.prop_delay
   | Some plan ->
     let extra = plan.extra_delay p in
     if extra > 0. then fire_fault t (Fault_delay extra) p;
     Delay_line.push t.prop p ~delay:(t.prop_delay +. extra));
  maybe_start t

(* A fault discard never touched the buffer; it is still a drop as far as
   counters and drop observers (conservation, drop logs) are concerned.
   The fault hook fires first so checkers know the coming drop is
   intentional. *)
and fault_discard t p ~label =
  fire_fault t (Fault_drop label) p;
  count_drop t p;
  fire_drop t p

and admit t p =
  match Discipline.enqueue t.queue p ~in_service:(Bool.to_int t.busy) with
  | Discipline.Rejected ->
    count_drop t p;
    fire_drop t p;
    `Dropped
  | Discipline.Accepted ->
    count_enq t p;
    fire_enqueue t p;
    maybe_start t;
    `Ok
  | Discipline.Evicted victim ->
    (* The arrival was stored; a previously queued packet paid for it. *)
    count_enq t p;
    count_drop t victim;
    fire_drop t victim;
    fire_enqueue t p;
    maybe_start t;
    `Ok

let send t p =
  match t.faults with
  | None -> admit t p
  | Some plan ->
    if t.down then begin
      fault_discard t p ~label:"outage";
      `Dropped
    end
    else begin
      match plan.ingress p with
      | `Pass -> admit t p
      | `Drop label ->
        fault_discard t p ~label;
        `Dropped
      | `Duplicate ->
        let outcome = admit t p in
        (* The copy is a new wire entity (fresh id); it bypasses the
           ingress filter so duplication cannot cascade. *)
        let copy = plan.clone p in
        fire_fault t Fault_duplicate copy;
        ignore (admit t copy : [ `Ok | `Dropped ]);
        outcome
    end

let install_faults t ~ingress ~extra_delay ~clone =
  t.faults <- Some { ingress; extra_delay; clone }

let has_faults t = t.faults <> None
let is_down t = t.down

let set_down t flag =
  if t.faults = None then
    invalid_arg "Link.set_down: no fault plan installed";
  if flag <> t.down then begin
    t.down <- flag;
    if flag then begin
      (* The cut loses everything in flight: the packet being serialized,
         the queue behind it (flushed in FIFO order, so order-sensitive
         checkers can follow along), and packets already in propagation. *)
      (if t.busy then begin
         Engine.Sim.Timer.cancel t.tx_timer;
         t.meter.(1) <-
           t.meter.(1) +. (Engine.Sim.now t.sim -. t.meter.(0));
         t.busy <- false;
         fault_discard t t.in_service ~label:"outage"
       end);
      let rec drain () =
        let p = Discipline.dequeue t.queue in
        if p != Packet.none then begin
          fault_discard t p ~label:"outage";
          drain ()
        end
      in
      drain ();
      Delay_line.flush t.prop (fun p -> fault_discard t p ~label:"outage")
    end
    else maybe_start t
  end

(* Tie the transmitter's knot: the tx timer's action needs [t]. *)
let create ?discipline sim ~id ~name ~src ~dst ~bandwidth ~prop_delay ~buffer =
  let t =
    make ?discipline sim ~id ~name ~src ~dst ~bandwidth ~prop_delay ~buffer
  in
  Engine.Sim.Timer.set_action t.tx_timer (fun () -> finish t);
  t
