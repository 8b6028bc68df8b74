let name = "fifo"

type t = {
  report : Report.t;
  subject : string;
  capacity : int option;
  model : int Queue.t;  (* packet ids in expected departure order *)
  sanctioned : unit Engine.Int_tbl.t;
      (* ids whose next drop was announced as a fault injection *)
}

let create report ~subject ~capacity =
  {
    report;
    subject;
    capacity;
    model = Queue.create ();
    sanctioned = Engine.Int_tbl.create 8;
  }

let add t ~time fmt =
  Printf.ksprintf
    (fun detail ->
      Report.add t.report ~time ~checker:name ~subject:t.subject ~detail)
    fmt

(* Inlined, so a hook's time is boxed only to report a violation. *)
let[@inline] check_occupancy t ~time ~qlen =
  if qlen < 0 then add t ~time "negative queue occupancy %d" qlen;
  match t.capacity with
  | Some c when qlen > c ->
    add t ~time "occupancy %d exceeds configured buffer %d" qlen c
  | _ -> ()

let[@inline] observe_enqueue t ~time (p : Net.Packet.t) ~qlen =
  check_occupancy t ~time ~qlen;
  Queue.push p.Net.Packet.id t.model

let remove_from_model t id =
  let keep = Queue.create () in
  Queue.iter (fun x -> if x <> id then Queue.push x keep) t.model;
  Queue.clear t.model;
  Queue.transfer keep t.model

(* A fault injection (lib/faults) may legally discard any packet — an
   arriving one, a queued one flushed by an outage, even one already in
   propagation.  The link announces the fault before firing the ordinary
   drop hook, so we sanction the id here and let {!observe_drop} skip its
   drop-tail reasoning exactly once. *)
let[@inline] observe_fault t ~time:_ (event : Net.Link.fault_event)
    (p : Net.Packet.t) =
  match event with
  | Net.Link.Fault_drop _ ->
    Engine.Int_tbl.replace t.sanctioned p.Net.Packet.id ();
    remove_from_model t p.Net.Packet.id
  | Net.Link.Fault_duplicate | Net.Link.Fault_delay _ -> ()

(* Drop-tail never discards a queued packet: a drop is always the arriving
   packet, and only when the buffer is full.  Fault-injected drops are
   exempt: the link announces them through the fault hook first. *)
let observe_drop t ~time (p : Net.Packet.t) =
  let id = p.Net.Packet.id in
  if Engine.Int_tbl.mem t.sanctioned id then
    Engine.Int_tbl.remove t.sanctioned id
  else begin
    if Queue.fold (fun acc x -> acc || x = id) false t.model then
      add t ~time "queued packet #%d discarded (drop-tail must reject arrivals)"
        id;
    match t.capacity with
    | None -> add t ~time "packet #%d dropped by an infinite buffer" id
    | Some c ->
      let occupancy = Queue.length t.model in
      if occupancy < c then
        add t ~time "packet #%d tail-dropped with buffer at %d/%d" id occupancy
          c
  end

(* Forget the model up to and including [id], so one reordering is
   reported once, not once per subsequent departure. *)
let rec resync t id =
  if not (Queue.is_empty t.model) && Queue.take t.model <> id then resync t id

let[@inline] observe_depart t ~time (p : Net.Packet.t) ~qlen =
  check_occupancy t ~time ~qlen;
  let id = p.Net.Packet.id in
  if Queue.is_empty t.model then
    add t ~time "packet #%d departed from an empty queue" id
  else begin
    let expected = Queue.take t.model in
    if expected <> id then begin
      add t ~time "FIFO order violated: packet #%d departed before #%d" id
        expected;
      resync t id
    end
  end

let finalize t ~time ~occupancy =
  let modelled = Queue.length t.model in
  if modelled <> occupancy then
    add t ~time "end-of-run occupancy %d disagrees with modelled %d" occupancy
      modelled
