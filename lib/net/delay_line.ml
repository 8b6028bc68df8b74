(* Cells are ints: cell [c] is [timers.(c)] and [pkts.(c)], and the free
   cells form an int stack, so taking and releasing a cell stores only
   ints and never runs the write barrier.  A push stores its packet once;
   a delivery stores nothing, and the stale packet stays in [pkts] until
   the cell is reused, so only a cell whose timer is pending holds a live
   packet.  Cells are made on first use and reused from then on. *)
type t = {
  sim : Engine.Sim.t;
  mutable deliver : Packet.t -> unit;
  mutable timers : Engine.Sim.Timer.timer array;
  mutable pkts : Packet.t array;
  mutable free : int array;  (* a stack of free cells *)
  mutable nfree : int;
  mutable ncells : int;
}

let create sim =
  {
    sim;
    deliver = (fun _ -> failwith "Delay_line: deliver callback not set");
    timers = [||];
    pkts = [||];
    free = [||];
    nfree = 0;
    ncells = 0;
  }

let set_deliver t f = t.deliver <- f

let[@inline] release t c =
  t.free.(t.nfree) <- c;
  t.nfree <- t.nfree + 1

(* Read the packet before releasing the cell: the hand-off may push into
   this line and reuse it. *)
let fire t c () =
  let p = t.pkts.(c) in
  release t c;
  t.deliver p

(* A new cell, on the free stack. *)
let add_cell t =
  let c = t.ncells in
  let timer = Engine.Sim.Timer.create t.sim (fire t c) in
  if c = Array.length t.timers then begin
    (* The new timer fills the fresh slots: a slot is read only once a
       cell owns it. *)
    let cap = max 4 (2 * c) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 c;
      b
    in
    t.timers <- extend t.timers timer;
    t.pkts <- extend t.pkts Packet.none;
    t.free <- extend t.free 0
  end;
  t.timers.(c) <- timer;
  t.ncells <- c + 1;
  release t c

(* Arm before taking the cell: a rejected delay leaves it free, holding
   no packet. *)
let push t p ~delay =
  if t.nfree = 0 then add_cell t;
  let c = t.free.(t.nfree - 1) in
  Engine.Sim.Timer.set t.timers.(c) ~delay;
  t.nfree <- t.nfree - 1;
  t.pkts.(c) <- p

let flush t f =
  let pending = ref [] in
  for c = 0 to t.ncells - 1 do
    if Engine.Sim.Timer.pending t.timers.(c) then pending := c :: !pending
  done;
  let packets =
    List.sort
      (fun a b -> Int.compare t.pkts.(a).Packet.id t.pkts.(b).Packet.id)
      !pending
    |> List.map (fun c ->
           Engine.Sim.Timer.cancel t.timers.(c);
           release t c;
           t.pkts.(c))
  in
  List.iter f packets
