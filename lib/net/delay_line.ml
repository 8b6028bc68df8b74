(* Free cells form an intrusive list ended by a nil cell that points to
   itself; idle slots hold [Packet.none] (physical-equality sentinel)
   rather than an option, so the steady state allocates nothing.
   [cells] keeps every cell ever made, for [flush]. *)
type cell = {
  timer : Engine.Sim.Timer.timer;
  mutable pkt : Packet.t;  (* == Packet.none when the cell is free *)
  mutable next : cell;  (* next free cell *)
}

type t = {
  sim : Engine.Sim.t;
  mutable deliver : Packet.t -> unit;
  mutable free : cell;
  nil : cell;
  mutable cells : cell list;
}

let nop () = ()

let create sim =
  let rec nil =
    { timer = Engine.Sim.Timer.create sim nop; pkt = Packet.none; next = nil }
  in
  {
    sim;
    deliver = (fun _ -> failwith "Delay_line: deliver callback not set");
    free = nil;
    nil;
    cells = [];
  }

let set_deliver t f = t.deliver <- f

let release t c =
  c.pkt <- Packet.none;
  c.next <- t.free;
  t.free <- c

let take t =
  let c = t.free in
  if c != t.nil then begin
    t.free <- c.next;
    c.next <- t.nil;
    c
  end
  else begin
    let c =
      { timer = Engine.Sim.Timer.create t.sim nop; pkt = Packet.none;
        next = t.nil }
    in
    Engine.Sim.Timer.set_action c.timer (fun () ->
        let p = c.pkt in
        release t c;
        t.deliver p);
    t.cells <- c :: t.cells;
    c
  end

(* Arm before filling the slot: a rejected delay then leaves no packet
   behind for [flush] to find. *)
let push t p ~delay =
  let c = take t in
  Engine.Sim.Timer.set c.timer ~delay;
  c.pkt <- p

let flush t f =
  let pending =
    List.filter (fun c -> c.pkt != Packet.none) t.cells
    |> List.sort (fun a b -> compare a.pkt.Packet.id b.pkt.Packet.id)
    |> List.map (fun c ->
           let p = c.pkt in
           Engine.Sim.Timer.cancel c.timer;
           release t c;
           p)
  in
  List.iter f pending
