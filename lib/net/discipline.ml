type kind = Fifo | Random_drop of { seed : int } | Fair_queue

let kind_to_string = function
  | Fifo -> "fifo"
  | Random_drop _ -> "random-drop"
  | Fair_queue -> "fair-queue"

type outcome = Accepted | Rejected | Evicted of Packet.t

(* FIFO store: a growable ring of packets, so a push or pop allocates
   nothing once the array has grown to the largest backlog.  Only
   [\[head, head + len)] is ever read: a pop or a removal leaves its
   vacated slot holding a stale packet rather than storing a pointer to
   clear it.  The array is made on the first push, so a link that never
   carries a packet costs no slots. *)
type ring = {
  mutable slots : Packet.t array;  (* length 0 or a power of two *)
  mutable head : int;
  mutable len : int;
}

let ring_create () = { slots = [||]; head = 0; len = 0 }

(* Slot of the [i]-th stored packet, oldest first. *)
let slot r i = (r.head + i) land (Array.length r.slots - 1)

let ring_grow r =
  let cap = Array.length r.slots in
  let slots = Array.make (max 16 (2 * cap)) Packet.none in
  for i = 0 to r.len - 1 do
    slots.(i) <- r.slots.(slot r i)
  done;
  r.slots <- slots;
  r.head <- 0

let ring_push r p =
  if r.len = Array.length r.slots then ring_grow r;
  r.slots.(slot r r.len) <- p;
  r.len <- r.len + 1

let ring_take r =
  if r.len = 0 then Packet.none
  else begin
    let p = r.slots.(r.head) in
    r.head <- slot r 1;
    r.len <- r.len - 1;
    p
  end

(* Remove the [idx]-th stored packet, shifting the younger ones up one
   slot so service order is kept. *)
let ring_remove r idx =
  let victim = r.slots.(slot r idx) in
  for i = idx to r.len - 2 do
    r.slots.(slot r i) <- r.slots.(slot r (i + 1))
  done;
  r.len <- r.len - 1;
  victim

type state =
  | Single of ring * Engine.Rng.t option
      (* Fifo when rng is None, Random_drop otherwise *)
  | Classes of {
      queues : (int, Packet.t Queue.t) Hashtbl.t;
      round : int Queue.t;  (* classes with packets, in service order *)
      mutable stored : int;
    }

type t = { kind : kind; capacity : int option; state : state }

let create kind ~capacity =
  (match capacity with
   | Some c when c <= 0 ->
     invalid_arg "Discipline.create: capacity must be positive"
   | _ -> ());
  let state =
    match kind with
    | Fifo -> Single (ring_create (), None)
    | Random_drop { seed } ->
      Single (ring_create (), Some (Engine.Rng.create ~seed))
    | Fair_queue ->
      Classes { queues = Hashtbl.create 16; round = Queue.create (); stored = 0 }
  in
  { kind; capacity; state }

let kind t = t.kind
let capacity t = t.capacity

let length t =
  match t.state with
  | Single (r, _) -> r.len
  | Classes c -> c.stored

let is_empty t = length t = 0

let full t ~in_service =
  match t.capacity with
  | None -> false
  | Some c -> length t + in_service >= c

(* Remove the element at position [idx] from a class queue (O(n)). *)
let remove_at queue idx =
  let keep = Queue.create () in
  let victim = ref None in
  let i = ref 0 in
  Queue.iter
    (fun p ->
      if !i = idx then victim := Some p else Queue.push p keep;
      incr i)
    queue;
  Queue.clear queue;
  Queue.transfer keep queue;
  match !victim with Some p -> p | None -> invalid_arg "Discipline.remove_at"

(* Drop the tail packet of the longest per-connection queue. *)
let evict_from_longest (c : (int, Packet.t Queue.t) Hashtbl.t) =
  let longest = ref None in
  Hashtbl.iter
    (fun conn q ->
      match !longest with
      | Some (_, best) when Queue.length best >= Queue.length q -> ()
      | _ -> if Queue.length q > 0 then longest := Some (conn, q))
    c;
  match !longest with
  | None -> None
  | Some (_conn, q) ->
    let victim = remove_at q (Queue.length q - 1) in
    Some victim

let queue_mem x q = Queue.fold (fun acc y -> acc || y = x) false q

(* A class joins the round-robin ring when it holds packets.  Evictions can
   leave a stale ring entry for an emptied class; dequeue skips those, and
   the membership check here prevents duplicates when the class refills. *)
let ring_add round conn q =
  if Queue.is_empty q && not (queue_mem conn round) then Queue.push conn round

let class_queue c conn =
  match Hashtbl.find_opt c conn with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add c conn q;
    q

let enqueue t p ~in_service =
  match t.state with
  | Single (r, rng) ->
    if not (full t ~in_service) then begin
      ring_push r p;
      Accepted
    end
    else begin
      match rng with
      | None -> Rejected  (* drop-tail *)
      | Some rng ->
        (* Random Drop: victim uniform over queued packets + the arrival. *)
        let n = r.len in
        let victim_idx = Engine.Rng.int rng ~bound:(n + 1) in
        if victim_idx = n then Rejected
        else begin
          let victim = ring_remove r victim_idx in
          ring_push r p;
          Evicted victim
        end
    end
  | Classes c ->
    let q = class_queue c.queues p.Packet.conn in
    if not (full t ~in_service) then begin
      ring_add c.round p.Packet.conn q;
      Queue.push p q;
      c.stored <- c.stored + 1;
      Accepted
    end
    else begin
      (* Fair queueing drop policy: penalize the connection using the most
         buffer.  If the arrival's own class is (one of) the longest, the
         arrival is the natural victim. *)
      let arriving_len = Queue.length q in
      let is_longest =
        Hashtbl.fold
          (fun _ other acc -> acc && Queue.length other <= arriving_len)
          c.queues true
      in
      if is_longest then Rejected
      else
        match evict_from_longest c.queues with
        | None -> Rejected
        | Some victim ->
          c.stored <- c.stored - 1;
          ring_add c.round p.Packet.conn q;
          Queue.push p q;
          c.stored <- c.stored + 1;
          Evicted victim
    end

let rec dequeue t =
  match t.state with
  | Single (r, _) -> ring_take r
  | Classes c ->
    (match Queue.take_opt c.round with
     | None -> Packet.none
     | Some conn ->
       (match Hashtbl.find_opt c.queues conn with
        | None -> dequeue t
        | Some q ->
          (match Queue.take_opt q with
           | None -> dequeue t  (* class emptied by an eviction *)
           | Some p ->
             c.stored <- c.stored - 1;
             if not (Queue.is_empty q) then Queue.push conn c.round;
             p)))

let contents t =
  match t.state with
  | Single (r, _) -> List.init r.len (fun i -> r.slots.(slot r i))
  | Classes c ->
    (* Round order, then each class front-to-back. *)
    let seen = Hashtbl.create 8 in
    let acc = ref [] in
    Queue.iter
      (fun conn ->
        if not (Hashtbl.mem seen conn) then begin
          Hashtbl.add seen conn ();
          match Hashtbl.find_opt c.queues conn with
          | Some q -> Queue.iter (fun p -> acc := p :: !acc) q
          | None -> ()
        end)
      c.round;
    List.rev !acc
