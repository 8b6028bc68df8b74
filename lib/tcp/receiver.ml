type t = {
  net : Net.Network.t;
  sim : Engine.Sim.t;
  config : Config.t;
  mutable rcv_nxt : int;
  above_hole : unit Engine.Int_tbl.t;  (* out-of-order packets held back *)
  mutable delack_pending : bool;
  delack_timer : Engine.Sim.Timer.timer;  (* persistent; re-armed in place *)
  mutable data_received : int;
  mutable out_of_order : int;
  mutable duplicates : int;
  mutable acks_sent : int;
  mutable dup_acks_sent : int;
  mutable delayed_acks_sent : int;
  mutable last_ack : int;  (* last cumulative number ACKed, -1 if none *)
  mutable ack_hooks :
    (float -> ackno:int -> delayed:bool -> dup:bool -> unit) list;
}

let nop () = ()

let make net config =
  let sim = Net.Network.sim net in
  {
    net;
    sim;
    config;
    rcv_nxt = 0;
    above_hole = Engine.Int_tbl.create 64;
    delack_pending = false;
    delack_timer = Engine.Sim.Timer.create sim nop;
    data_received = 0;
    out_of_order = 0;
    duplicates = 0;
    acks_sent = 0;
    dup_acks_sent = 0;
    delayed_acks_sent = 0;
    last_ack = -1;
    ack_hooks = [];
  }

let rcv_nxt t = t.rcv_nxt
let data_received t = t.data_received
let out_of_order t = t.out_of_order
let duplicates t = t.duplicates
let acks_sent t = t.acks_sent
let dup_acks_sent t = t.dup_acks_sent
let delayed_acks_sent t = t.delayed_acks_sent
let buffered t = Engine.Int_tbl.length t.above_hole
let on_ack_sent t f = t.ack_hooks <- f :: t.ack_hooks

(* A direct walk, not [List.iter] over a closure built per ACK. *)
let rec call_ack hooks now ackno delayed dup =
  match hooks with
  | [] -> ()
  | f :: rest ->
    f now ~ackno ~delayed ~dup;
    call_ack rest now ackno delayed dup

let cancel_delack t =
  Engine.Sim.Timer.cancel t.delack_timer;
  t.delack_pending <- false

(* [delayed] marks ACKs released by the delayed-ACK timer, as opposed to
   ACKs triggered directly by an arriving packet. *)
let send_ack t ~delayed =
  let dup = t.rcv_nxt = t.last_ack in
  t.acks_sent <- t.acks_sent + 1;
  if dup then t.dup_acks_sent <- t.dup_acks_sent + 1;
  if delayed then t.delayed_acks_sent <- t.delayed_acks_sent + 1;
  t.last_ack <- t.rcv_nxt;
  (* ACKs travel dst -> src: the receiver's host is the data destination. *)
  let p =
    Net.Network.make_packet t.net ~conn:t.config.Config.conn ~kind:Net.Packet.Ack
      ~seq:t.rcv_nxt ~size:t.config.Config.ack_size
      ~src:t.config.Config.dst_host ~dst:t.config.Config.src_host
      ~retransmit:false
  in
  Net.Network.send_from_host t.net ~host:t.config.Config.dst_host p;
  match t.ack_hooks with
  | [] -> ()
  | hooks -> call_ack hooks (Engine.Sim.now t.sim) t.rcv_nxt delayed dup

let create net config =
  let t = make net config in
  Engine.Sim.Timer.set_action t.delack_timer (fun () ->
      t.delack_pending <- false;
      send_ack t ~delayed:true);
  t

let ack_now t =
  cancel_delack t;
  send_ack t ~delayed:false

(* Delayed-ACK policy for an in-order arrival: the first packet only marks
   an ACK as owed; the second packet (or the timer) releases it. *)
let ack_in_order t =
  if not t.config.Config.delayed_ack then send_ack t ~delayed:false
  else if t.delack_pending then ack_now t
  else begin
    t.delack_pending <- true;
    Engine.Sim.Timer.set t.delack_timer ~delay:Config.delack_timeout
  end

let on_data t (p : Net.Packet.t) =
  t.data_received <- t.data_received + 1;
  if p.seq = t.rcv_nxt then begin
    t.rcv_nxt <- t.rcv_nxt + 1;
    while Engine.Int_tbl.mem t.above_hole t.rcv_nxt do
      Engine.Int_tbl.remove t.above_hole t.rcv_nxt;
      t.rcv_nxt <- t.rcv_nxt + 1
    done;
    ack_in_order t
  end
  else if p.seq > t.rcv_nxt then begin
    t.out_of_order <- t.out_of_order + 1;
    if not (Engine.Int_tbl.mem t.above_hole p.seq) then
      Engine.Int_tbl.add t.above_hole p.seq ();
    ack_now t  (* duplicate ACK, sent immediately even with delayed ACK *)
  end
  else begin
    t.duplicates <- t.duplicates + 1;
    ack_now t
  end
