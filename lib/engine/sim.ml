(* The scheduler is two indexed binary min-heaps of timer slots over
   one slot table.  Each heap keeps its entries in parallel arrays:

     times : float array     primary key (flat, unboxed)
     seqs  : int array       tie-break key (insertion counter)
     heap  : int array       payloads: slot numbers

   and the table maps every slot to its timer and to its position in
   whichever heap holds it:

     slots : timer array     slot -> its timer
     index : int array       slot -> its heap position, -1 when not queued

   Every scheduled obligation — a one-shot closure from [schedule]/[at]
   or a reusable [Timer] — is a [timer] record that owns a slot, so
   cancel and re-arm are O(log n) in-place operations that produce no
   garbage on the per-event hot path.  The heaps move slot numbers, not
   timer pointers: sifting stores only ints and floats and never runs
   the write barrier.  A [Timer.create] timer keeps its slot for the
   simulator's life; a one-shot event takes a slot from the [free]
   stack and gives it back when it fires or is cancelled, resetting
   the slot's cell to [sentinel] so the closure it carried is
   collectable at once.

   The [rearmed] heap holds the timers that have been re-armed while
   pending — a TCP retransmission timer, restarted on every ACK a
   second or more ahead — and [events] holds everything else: one-shots
   and timers armed from idle, the packet events milliseconds ahead.
   A timer's first re-arm while pending moves it out of [events] for
   good: every later arming, from idle too, goes to [rearmed].  Packet
   events then sift past a handful of near entries instead of every
   connection's far deadline.  The loop takes whichever root comes
   first by (time, seq).

   Arming or re-arming assigns a fresh sequence number at the call site,
   exactly as cancel+schedule would, and seqs are unique across both
   heaps, so (time, seq) delivery order — and with it every golden
   trace — depends neither on the heaps' layout nor on which heap holds
   an entry.  [queue_length] is the exact live event count.

   The clock lives in a 1-element float array rather than a mutable
   float field: a float field of a mixed record is boxed, so assigning
   it on every event would allocate; a flat float array slot does not. *)

type heap = {
  mutable times : float array;
  mutable seqs : int array;
  mutable heap : int array;
  mutable size : int;
}

type t = {
  clock : float array; (* 1 cell *)
  mutable executed : int;
  events : heap;  (* one-shots and timers armed from idle *)
  rearmed : heap;  (* timers re-armed while pending *)
  mutable next_seq : int;
  mutable slots : timer array;
  mutable index : int array;
  mutable nslots : int;  (* slots handed out so far *)
  mutable free : int array;  (* released one-shot slots, a stack *)
  mutable nfree : int;
  mutable observers : (unit -> unit) list;  (* in registration order *)
  sentinel : timer;  (* fills the cell of every free slot *)
}

and timer = {
  owner : t;
  mutable action : unit -> unit;
  mutable slot : int;  (* -1 once a one-shot has fired or been cancelled *)
  mutable kind : kind;
}

(* A one-shot's slot is released when it fires or is cancelled; a
   [Reusable] timer queues in [events] until its first re-arm while
   pending makes it [Rearmed] for good. *)
and kind = One_shot | Reusable | Rearmed

type handle = timer

let nop () = ()

let empty_heap () = { times = [||]; seqs = [||]; heap = [||]; size = 0 }

let create () =
  let rec t =
    {
      clock = [| 0. |];
      executed = 0;
      events = empty_heap ();
      rearmed = empty_heap ();
      next_seq = 0;
      slots = [||];
      index = [||];
      nslots = 0;
      free = [||];
      nfree = 0;
      observers = [];
      sentinel;
    }
  and sentinel = { owner = t; action = nop; slot = -1; kind = One_shot } in
  t

let[@inline] now t = t.clock.(0)
let events_run t = t.executed
let queue_length t = t.events.size + t.rearmed.size

(* Registration is rare and iteration is the hot path, so keep the list
   in registration order (append) rather than reversing on every event:
   observers run in install order, as the interface promises.  Users:
   validation's Clock checker and the end-to-end benchmark's probe. *)
let on_event t f = t.observers <- t.observers @ [ f ]

(* ------------------------------------------------------------------ *)
(* Slots                                                               *)
(* ------------------------------------------------------------------ *)

let initial_capacity = 64

let extend a ~cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_heap h ~cap =
  h.times <- extend h.times ~cap 0.;
  h.seqs <- extend h.seqs ~cap 0;
  h.heap <- extend h.heap ~cap 0

(* The slot table and [events] share one capacity: a queued entry holds
   a slot, so [events] never outgrows the slot count, nor the free
   stack. *)
let grow t =
  let cap = Array.length t.slots in
  let cap = if cap = 0 then initial_capacity else 2 * cap in
  grow_heap t.events ~cap;
  t.slots <- extend t.slots ~cap t.sentinel;
  t.index <- extend t.index ~cap (-1);
  t.free <- extend t.free ~cap 0

(* [rearmed] is made on first use and grows with its own entries, so a
   run without re-arms never allocates it. *)
let reserve_rearmed t =
  let h = t.rearmed in
  let cap = Array.length h.times in
  if h.size = cap then grow_heap h ~cap:(if cap = 0 then 2 else 2 * cap)

(* A released one-shot's slot if there is one, else a fresh slot. *)
let take_slot t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else begin
    if t.nslots = Array.length t.slots then grow t;
    t.nslots <- t.nslots + 1;
    t.nslots - 1
  end

let new_timer t action ~kind =
  let tm = { owner = t; action; slot = take_slot t; kind } in
  t.slots.(tm.slot) <- tm;
  tm

(* Give a fired or cancelled one-shot's slot back. *)
let release t tm =
  let s = tm.slot in
  tm.slot <- -1;
  t.slots.(s) <- t.sentinel;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

let[@inline] heap_of t tm =
  match tm.kind with Rearmed -> t.rearmed | One_shot | Reusable -> t.events

(* ------------------------------------------------------------------ *)
(* Indexed heap plumbing                                               *)
(* ------------------------------------------------------------------ *)

let[@inline] entry_before h i j =
  let ti = h.times.(i) and tj = h.times.(j) in
  ti < tj || (ti = tj && h.seqs.(i) < h.seqs.(j))

(* Move entry [src] to position [dst], keeping its slot's index. *)
let[@inline] move t h ~src ~dst =
  h.times.(dst) <- h.times.(src);
  h.seqs.(dst) <- h.seqs.(src);
  let slot = h.heap.(src) in
  h.heap.(dst) <- slot;
  t.index.(slot) <- dst

(* Write an entry where a sift stopped. *)
let[@inline] place t h i ~time ~seq ~slot =
  h.times.(i) <- time;
  h.seqs.(i) <- seq;
  h.heap.(i) <- slot;
  t.index.(slot) <- i

(* Both sifts place the entry at [src] by moving a hole from [hole]:
   the entry is read once, each entry it passes moves one level, and it
   is written once where it stops. *)
let sift_up t h ~hole ~src =
  let time = h.times.(src) and seq = h.seqs.(src) and slot = h.heap.(src) in
  let i = ref hole and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = h.times.(p) in
    if time < tp || (time = tp && seq < h.seqs.(p)) then begin
      move t h ~src:p ~dst:!i;
      i := p
    end
    else moving := false
  done;
  place t h !i ~time ~seq ~slot

let sift_down t h ~hole ~src =
  let time = h.times.(src) and seq = h.seqs.(src) and slot = h.heap.(src) in
  let i = ref hole and moving = ref true in
  while !moving do
    let left = (2 * !i) + 1 in
    if left >= h.size then moving := false
    else begin
      let c =
        if left + 1 < h.size && entry_before h (left + 1) left then left + 1
        else left
      in
      let tc = h.times.(c) in
      if tc < time || (tc = time && h.seqs.(c) < seq) then begin
        move t h ~src:c ~dst:!i;
        i := c
      end
      else moving := false
    end
  done;
  place t h !i ~time ~seq ~slot

(* Queue a slot that is not queued, with a fresh sequence number.
   Inlined so that the caller's unboxed [time] is never boxed. *)
let[@inline] arm t h slot ~time =
  let i = h.size in
  h.size <- i + 1;
  place t h i ~time ~seq:t.next_seq ~slot;
  t.next_seq <- t.next_seq + 1;
  sift_up t h ~hole:i ~src:i

(* Re-key a queued slot in place.  The fresh seq is larger than every
   seq already in the heap, so when the time does not strictly decrease
   the entry can only sink; when it strictly decreases it can only
   rise (its new key is then strictly below both children's). *)
let[@inline] rekey t h slot ~time =
  let i = t.index.(slot) in
  let old_time = h.times.(i) in
  h.times.(i) <- time;
  h.seqs.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  if time < old_time then sift_up t h ~hole:i ~src:i
  else sift_down t h ~hole:i ~src:i

(* Fill position [i], which the caller has just vacated, with the last
   entry, sifting it in whichever direction the heap property needs. *)
let fill_hole t h i =
  let last = h.size - 1 in
  h.size <- last;
  if i < last then begin
    if i > 0 && entry_before h last ((i - 1) / 2) then
      sift_up t h ~hole:i ~src:last
    else sift_down t h ~hole:i ~src:last
  end

(* Unqueue a queued slot. *)
let remove t h slot =
  let i = t.index.(slot) in
  t.index.(slot) <- -1;
  fill_hole t h i

(* The heap whose root fires next: the earlier root by (time, seq), or
   the only non-empty heap ([events] when both are empty). *)
let[@inline] first t =
  let e = t.events and r = t.rearmed in
  if r.size = 0 then e
  else if e.size = 0 then r
  else
    let te = e.times.(0) and tr = r.times.(0) in
    if tr < te || (tr = te && r.seqs.(0) < e.seqs.(0)) then r else e

(* Remove and return [h]'s root timer, releasing a one-shot's slot.
   The caller has already read its time. *)
let pop_min t h =
  let slot = h.heap.(0) in
  let tm = t.slots.(slot) in
  t.index.(slot) <- -1;
  fill_hole t h 0;
  if tm.kind = One_shot then release t tm;
  tm

(* ------------------------------------------------------------------ *)
(* One-shot scheduling (closure API, built on the same slots)           *)
(* ------------------------------------------------------------------ *)

let at t ~time f =
  if Float.is_nan time then invalid_arg "Sim.at: NaN time";
  if time < t.clock.(0) then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is before current time %g" time
         t.clock.(0));
  let tm = new_timer t f ~kind:One_shot in
  arm t t.events tm.slot ~time;
  tm

let schedule t ~delay f =
  if Float.is_nan delay then invalid_arg "Sim.schedule: NaN delay";
  if delay < 0. then
    invalid_arg (Printf.sprintf "Sim.schedule: negative delay %g" delay);
  at t ~time:(t.clock.(0) +. delay) f

let pending tm = tm.slot >= 0 && tm.owner.index.(tm.slot) >= 0

let cancel tm =
  if pending tm then begin
    let t = tm.owner in
    remove t (heap_of t tm) tm.slot;
    if tm.kind = One_shot then release t tm
  end

(* ------------------------------------------------------------------ *)
(* Reusable timers                                                     *)
(* ------------------------------------------------------------------ *)

(* (Re-)arm a reusable timer.  Inlined so that [time] stays unboxed. *)
let[@inline] set_time tm ~time =
  let t = tm.owner and slot = tm.slot in
  let queued = t.index.(slot) >= 0 in
  match tm.kind with
  | Rearmed when queued -> rekey t t.rearmed slot ~time
  | (One_shot | Reusable) when not queued -> arm t t.events slot ~time
  | One_shot | Reusable | Rearmed ->
    (* A first re-arm while pending moves the timer to [rearmed] for
       good; the removal takes no seq and the arm one, as a rekey
       would. *)
    if queued then begin
      remove t t.events slot;
      tm.kind <- Rearmed
    end;
    reserve_rearmed t;
    arm t t.rearmed slot ~time

module Timer = struct
  type timer = handle

  let create owner action = new_timer owner action ~kind:Reusable

  let set_action tm f = tm.action <- f

  let set_at tm ~time =
    let t = tm.owner in
    if Float.is_nan time then invalid_arg "Sim.Timer.set_at: NaN time";
    if time < t.clock.(0) then
      invalid_arg
        (Printf.sprintf "Sim.Timer.set_at: time %g is before current time %g"
           time t.clock.(0));
    set_time tm ~time

  let[@inline] set tm ~delay =
    let t = tm.owner in
    if Float.is_nan delay then invalid_arg "Sim.Timer.set: NaN delay";
    if delay < 0. then
      invalid_arg (Printf.sprintf "Sim.Timer.set: negative delay %g" delay);
    set_time tm ~time:(t.clock.(0) +. delay)

  let cancel = cancel
  let pending = pending
end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Walked directly, as the model's hook lists are; an observer reads
   [now] itself, so a walk allocates nothing. *)
let rec call_observers = function
  | [] -> ()
  | f :: rest ->
    f ();
    call_observers rest

let execute t tm =
  t.executed <- t.executed + 1;
  (match t.observers with [] -> () | obs -> call_observers obs);
  tm.action ()

(* The one event loop: pop and execute at most [n] events at or before
   [until], returning how many ran.  Every entry point below is a few
   lines over it. *)
let run_events t ~until ~n =
  let ran = ref 0 and due = ref true in
  while !due && !ran < n do
    let h = first t in
    if h.size > 0 && h.times.(0) <= until then begin
      let time = h.times.(0) in
      let tm = pop_min t h in
      t.clock.(0) <- time;
      execute t tm;
      incr ran
    end
    else due := false
  done;
  !ran

let check_horizon fn t until =
  if Float.is_nan until then invalid_arg (fn ^ ": NaN horizon");
  if until < t.clock.(0) then
    invalid_arg
      (Printf.sprintf "%s: horizon %g is before current time %g" fn until
         t.clock.(0))

let step t ~until =
  if Float.is_nan until then invalid_arg "Sim.step: NaN horizon";
  run_events t ~until ~n:1 = 1

let run t ~until =
  check_horizon "Sim.run" t until;
  ignore (run_events t ~until ~n:max_int : int);
  (* The queue is drained of events at or before [until]; the clock always
     lands exactly on the horizon. *)
  t.clock.(0) <- until

let run_to_completion t =
  ignore (run_events t ~until:Float.infinity ~n:max_int : int)

(* ------------------------------------------------------------------ *)
(* Guarded execution (watchdogs)                                       *)
(* ------------------------------------------------------------------ *)

type stop_reason =
  | Completed
  | Event_budget of int
  | Wall_budget of float
  | Stop_requested

let stop_reason_to_string = function
  | Completed -> "completed"
  | Event_budget n -> Printf.sprintf "event budget exhausted (%d events)" n
  | Wall_budget s -> Printf.sprintf "wall-clock budget exhausted (%.3gs)" s
  | Stop_requested -> "stop requested"

(* The stop predicate and the wall clock are polled before each block of
   [poll_every] events (~0.2 ms of hot-path work), and only when an event
   is due; the event budget caps each block.  With nothing to poll the
   run is one block. *)
let poll_every = 1024

let run_guarded t ~until ?max_events ?max_wall ?(wall_clock = Sys.time) ?stop
    () =
  check_horizon "Sim.run_guarded" t until;
  let budget = Option.value max_events ~default:max_int in
  let limit = Option.value max_wall ~default:Float.infinity in
  let wall0 = if Option.is_none max_wall then 0. else wall_clock () in
  let block =
    if Option.is_none stop && Option.is_none max_wall then max_int
    else poll_every
  in
  let stop = Option.value stop ~default:(fun () -> false) in
  let rec go ran =
    let h = first t in
    if h.size = 0 || h.times.(0) > until then begin
      (* As in [run], the clock lands exactly on the horizon; an early
         stop leaves it at the last executed event, so the partial state
         is consistent and the run can be resumed. *)
      t.clock.(0) <- until;
      Completed
    end
    else if ran >= budget then Event_budget ran
    else if stop () then Stop_requested
    else
      let elapsed =
        if Option.is_none max_wall then 0. else wall_clock () -. wall0
      in
      if elapsed > limit then Wall_budget elapsed
      else go (ran + run_events t ~until ~n:(min block (budget - ran)))
  in
  go 0
