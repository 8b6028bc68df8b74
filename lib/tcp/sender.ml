type t = {
  net : Net.Network.t;
  sim : Engine.Sim.t;
  config : Config.t;
  cc : Cc.t;
  rto : Rto.t;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable highest_sent : int;  (* largest seq ever transmitted; -1 if none *)
  mutable dup_acks : int;
  timer : Engine.Sim.Timer.timer;
      (* persistent retransmission timer: BSD cancels and restarts it on
         every ACK, so it is re-armed in place rather than reallocated *)
  mutable timed_seq : int;  (* seq being timed; -1 when none *)
  times : float array;
      (* 0: the timed seq's send time; 1: pacing's earliest permitted
         injection.  Flat cells, since assigning a float field of a mixed
         record boxes it. *)
  pacer : Engine.Sim.Timer.timer;  (* persistent; armed only when pacing *)
  mutable data_sent : int;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable fast_retransmits : int;
  mutable cwnd_hooks : (float -> cwnd:float -> ssthresh:float -> unit) list;
  mutable loss_hooks : (float -> Cc.reason -> unit) list;
  mutable send_hooks : (float -> Net.Packet.t -> unit) list;
  mutable completed_at : float option;  (* sized flow fully acknowledged *)
}

let nop () = ()

let make net config =
  let sim = Net.Network.sim net in
  {
    net;
    sim;
    config;
    cc = Cc_zoo.make config.Config.cc ~maxwnd:config.Config.maxwnd;
    rto = Rto.create config.Config.rto_params;
    snd_una = 0;
    snd_nxt = 0;
    highest_sent = -1;
    dup_acks = 0;
    timer = Engine.Sim.Timer.create sim nop;
    timed_seq = -1;
    times = [| 0.; 0. |];
    pacer = Engine.Sim.Timer.create sim nop;
    data_sent = 0;
    retransmits = 0;
    timeouts = 0;
    fast_retransmits = 0;
    cwnd_hooks = [];
    loss_hooks = [];
    send_hooks = [];
    completed_at = None;
  }

let config t = t.config
let cc t = t.cc
let cwnd t = Cc.cwnd t.cc
let ssthresh t = Cc.ssthresh t.cc
let snd_una t = t.snd_una
let snd_nxt t = t.snd_nxt
let outstanding t = t.snd_nxt - t.snd_una
let rto t = t.rto
let data_sent t = t.data_sent
let retransmits t = t.retransmits
let timeouts t = t.timeouts
let fast_retransmits t = t.fast_retransmits
let on_cwnd t f = t.cwnd_hooks <- f :: t.cwnd_hooks
let on_loss t f = t.loss_hooks <- f :: t.loss_hooks
let on_send t f = t.send_hooks <- f :: t.send_hooks
let completed_at t = t.completed_at

(* Last packet of a sized flow (exclusive), or max_int for infinite data. *)
let flow_limit t =
  match t.config.Config.flow_size with Some n -> n | None -> max_int

let now t = Engine.Sim.now t.sim

(* Hooks are walked directly, not by [List.iter] over a closure built
   per fire, and nothing is computed for an empty list. *)
let rec call_cwnd hooks time cwnd ssthresh =
  match hooks with
  | [] -> ()
  | f :: rest ->
    f time ~cwnd ~ssthresh;
    call_cwnd rest time cwnd ssthresh

(* The loss and send hooks share this walker. *)
let rec call2 hooks a b =
  match hooks with
  | [] -> ()
  | f :: rest ->
    f a b;
    call2 rest a b

let fire_cwnd t =
  match t.cwnd_hooks with
  | [] -> ()
  | hooks -> call_cwnd hooks (now t) (Cc.cwnd t.cc) (Cc.ssthresh t.cc)

let fire_loss t reason =
  match t.loss_hooks with
  | [] -> ()
  | hooks -> call2 hooks (now t) reason

let cancel_timer t = Engine.Sim.Timer.cancel t.timer

let rec arm_timer t =
  (* Re-arming in place consumes exactly one sequence number, like the
     cancel-then-schedule it replaces, so event order is unchanged. *)
  if t.config.Config.loss_detection then
    Engine.Sim.Timer.set t.timer ~delay:(Rto.timeout t.rto)
  else cancel_timer t

and on_timeout t =
  if t.snd_una < t.snd_nxt then begin
    t.timeouts <- t.timeouts + 1;
    Rto.backoff t.rto;
    (* BSD zeroes the dup-ACK counter on timeout (but NOT on fast
       retransmit: there the counter keeps climbing past the threshold so
       the remaining duplicate ACKs of the old window cannot re-trigger). *)
    t.dup_acks <- 0;
    handle_loss t Cc.Timeout
  end

and handle_loss t reason =
  fire_loss t reason;
  Cc.on_loss t.cc reason ~highest_sent:t.highest_sent;
  fire_cwnd t;
  t.timed_seq <- -1;  (* Karn: no sample spans the retransmission *)
  (match reason with
   | Cc.Timeout ->
     (* Timeout recovery is go-back-N: resume from the hole. *)
     t.snd_nxt <- t.snd_una
   | Cc.Fast_retransmit ->
     (* Fast retransmit (both Tahoe and Reno) resends only the missing
        segment and then restores snd_nxt, so the packets that were in
        flight are not transmitted again (their duplicate ACKs must not be
        able to feed another recovery).  Reno's inflated window may then
        admit new data during recovery. *)
     let old_nxt = t.snd_nxt in
     send_one t t.snd_una;
     t.snd_nxt <- max old_nxt (t.snd_una + 1));
  try_send t;
  arm_timer t

and try_send t =
  match t.config.Config.pacing with
  | None ->
    (* Nonpaced: inject immediately while the window has room. *)
    let limit = min (t.snd_una + Cc.window t.cc) (flow_limit t) in
    while t.snd_nxt < limit do
      send_one t t.snd_nxt;
      t.snd_nxt <- t.snd_nxt + 1
    done
  | Some interval -> paced_send t interval

(* Paced transmission: at most one data packet per [interval], surplus
   window permission is spent by a self-rescheduling pacer event. *)
and paced_send t interval =
  let limit = min (t.snd_una + Cc.window t.cc) (flow_limit t) in
  if t.snd_nxt < limit then begin
    let now_ = now t in
    if now_ +. 1e-12 >= t.times.(1) then begin
      send_one t t.snd_nxt;
      t.snd_nxt <- t.snd_nxt + 1;
      t.times.(1) <- now_ +. interval
    end;
    (* The pacer's action (tied in [create]) already closes over the
       interval; firing disarms the timer, so [pending] gates re-arming. *)
    if t.snd_nxt < limit && not (Engine.Sim.Timer.pending t.pacer) then
      Engine.Sim.Timer.set t.pacer ~delay:(Float.max 0. (t.times.(1) -. now t))
  end

and send_one t seq =
  let retransmit = seq <= t.highest_sent in
  if retransmit then t.retransmits <- t.retransmits + 1
  else begin
    t.data_sent <- t.data_sent + 1;
    t.highest_sent <- seq
  end;
  if t.timed_seq < 0 && not retransmit then begin
    t.timed_seq <- seq;
    t.times.(0) <- now t
  end;
  let p =
    Net.Network.make_packet t.net ~conn:t.config.Config.conn ~kind:Net.Packet.Data
      ~seq ~size:Config.data_size ~src:t.config.Config.src_host
      ~dst:t.config.Config.dst_host ~retransmit
  in
  (match t.send_hooks with
   | [] -> ()
   | hooks -> call2 hooks (now t) p);
  let host = t.config.Config.src_host in
  (* A constant per-connection skew stretches this sender's RTT without
     reordering its packets (it models a longer access path). *)
  let skew = t.config.Config.rtt_skew in
  if skew > 0. then
    ignore
      (Engine.Sim.schedule t.sim ~delay:skew (fun () ->
           Net.Network.send_from_host t.net ~host p)
        : Engine.Sim.handle)
  else Net.Network.send_from_host t.net ~host p;
  if not (Engine.Sim.Timer.pending t.timer) then arm_timer t

let create net config =
  let t = make net config in
  Engine.Sim.Timer.set_action t.timer (fun () -> on_timeout t);
  (match config.Config.pacing with
   | Some interval ->
     Engine.Sim.Timer.set_action t.pacer (fun () -> paced_send t interval)
   | None -> ());
  t

let start t = try_send t

let on_ack t (p : Net.Packet.t) =
  let ackno = p.seq in
  if ackno > t.snd_una then begin
    (* New data acknowledged. *)
    if t.timed_seq >= 0 && ackno > t.timed_seq then begin
      let rtt = now t -. t.times.(0) in
      Rto.sample t.rto rtt;
      Cc.on_rtt_sample t.cc ~rtt;
      t.timed_seq <- -1
    end;
    Rto.reset_backoff t.rto;
    let newly = ackno - t.snd_una in
    t.snd_una <- ackno;
    (* A cumulative ACK during go-back-N recovery can overtake snd_nxt
       (the receiver had buffered the packets above the hole); never send
       below snd_una again. *)
    if t.snd_nxt < t.snd_una then t.snd_nxt <- t.snd_una;
    t.dup_acks <- 0;
    let retransmit_hole = Cc.on_ack t.cc ~ackno ~newly in
    fire_cwnd t;
    if t.snd_una >= t.snd_nxt then cancel_timer t else arm_timer t;
    (match t.config.Config.flow_size with
     | Some n when t.snd_una >= n && t.completed_at = None ->
       t.completed_at <- Some (now t);
       cancel_timer t
     | _ -> ());
    (* NewReno-style partial ACK: the controller stays in recovery and
       asks for the next hole to be retransmitted immediately. *)
    if retransmit_hole && t.snd_una < t.snd_nxt then begin
      t.timed_seq <- -1;  (* Karn: the retransmission makes samples ambiguous *)
      let old_nxt = t.snd_nxt in
      send_one t t.snd_una;
      t.snd_nxt <- max old_nxt (t.snd_una + 1)
    end;
    try_send t
  end
  else if ackno = t.snd_una && t.snd_nxt > t.snd_una then begin
    t.dup_acks <- t.dup_acks + 1;
    if t.config.Config.loss_detection then begin
      if t.dup_acks = Config.dupack_threshold then begin
        t.fast_retransmits <- t.fast_retransmits + 1;
        handle_loss t Cc.Fast_retransmit
      end
      else if t.dup_acks > Config.dupack_threshold
              && Cc.in_recovery t.cc
      then begin
        (* Reno: every further duplicate means a packet left the network;
           inflate and possibly transmit new data. *)
        Cc.on_dup_ack t.cc;
        fire_cwnd t;
        try_send t
      end
    end
  end
(* ackno < snd_una: stale ACK from before a recovery; ignore. *)
