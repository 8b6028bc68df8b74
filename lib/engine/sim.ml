(* The scheduler is an *indexed* binary min-heap of timer slots over
   parallel arrays:

     times : float array     primary key (flat, unboxed)
     seqs  : int array       tie-break key (insertion counter)
     heap  : int array       payloads: slot numbers
     index : int array       slot -> its heap position, -1 when not queued
     slots : timer array     slot -> its timer

   Every scheduled obligation — a one-shot closure from [schedule]/[at]
   or a reusable [Timer] — is a [timer] record that owns a slot, so
   cancel and re-arm are O(log n) in-place operations that produce no
   garbage on the per-event hot path.  The heap moves slot numbers, not
   timer pointers: sifting stores only ints and floats and never runs
   the write barrier.  A [Timer.create] timer keeps its slot for the
   simulator's life; a one-shot event takes a slot from the [free]
   stack and gives it back when it fires or is cancelled, resetting
   the slot's cell to [sentinel] so the closure it carried is
   collectable at once.

   Re-arming assigns a fresh sequence number at the call site, exactly
   as cancel+schedule would, so (time, seq) delivery order — and with
   it every golden trace — does not depend on the heap's layout.
   [queue_length] is the exact live event count.

   The clock lives in a 1-element float array rather than a mutable
   float field: a float field of a mixed record is boxed, so assigning
   it on every event would allocate; a flat float array slot does not. *)

type t = {
  clock : float array; (* 1 cell *)
  mutable executed : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable heap : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable slots : timer array;
  mutable index : int array;
  mutable nslots : int;  (* slots handed out so far *)
  mutable free : int array;  (* released one-shot slots, a stack *)
  mutable nfree : int;
  mutable observers : (float -> unit) list;  (* in registration order *)
  sentinel : timer;  (* fills the cell of every free slot *)
}

and timer = {
  owner : t;
  mutable action : unit -> unit;
  mutable slot : int;  (* -1 once a one-shot has fired or been cancelled *)
  oneshot : bool;
}

type handle = timer

let nop () = ()

let create () =
  let rec t =
    {
      clock = [| 0. |];
      executed = 0;
      times = [||];
      seqs = [||];
      heap = [||];
      size = 0;
      next_seq = 0;
      slots = [||];
      index = [||];
      nslots = 0;
      free = [||];
      nfree = 0;
      observers = [];
      sentinel;
    }
  and sentinel = { owner = t; action = nop; slot = -1; oneshot = true } in
  t

let[@inline] now t = t.clock.(0)
let events_run t = t.executed
let queue_length t = t.size

(* Registration is rare and iteration is the hot path, so keep the list
   in registration order (append) rather than reversing on every event:
   validate/trace hooks rely on running in install order. *)
let on_event t f = t.observers <- t.observers @ [ f ]

(* ------------------------------------------------------------------ *)
(* Slots                                                               *)
(* ------------------------------------------------------------------ *)

let initial_capacity = 64

(* Every array has one capacity.  A queued entry holds a slot, so the
   heap never outgrows the slot count, nor the free stack. *)
let grow t =
  let cap = Array.length t.slots in
  let ncap = if cap = 0 then initial_capacity else 2 * cap in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.heap <- extend t.heap 0;
  t.slots <- extend t.slots t.sentinel;
  t.index <- extend t.index (-1);
  t.free <- extend t.free 0

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

let new_timer t action ~oneshot =
  let tm = { owner = t; action; slot = take_slot t; oneshot } in
  t.slots.(tm.slot) <- tm;
  tm

(* Give a fired or cancelled one-shot's slot back. *)
let release t tm =
  let s = tm.slot in
  tm.slot <- -1;
  t.slots.(s) <- t.sentinel;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

(* ------------------------------------------------------------------ *)
(* Indexed heap plumbing                                               *)
(* ------------------------------------------------------------------ *)

let[@inline] entry_before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

(* Move entry [src] to position [dst], keeping its slot's index. *)
let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  let slot = t.heap.(src) in
  t.heap.(dst) <- slot;
  t.index.(slot) <- dst

(* Write an entry where a sift stopped. *)
let[@inline] place t i ~time ~seq ~slot =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.heap.(i) <- slot;
  t.index.(slot) <- i

(* Both sifts place the entry at [src] by moving a hole from [hole]:
   the entry is read once, each entry it passes moves one level, and it
   is written once where it stops. *)
let sift_up t ~hole ~src =
  let time = t.times.(src) and seq = t.seqs.(src) and slot = t.heap.(src) in
  let i = ref hole and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = t.times.(p) in
    if time < tp || (time = tp && seq < t.seqs.(p)) then begin
      move t ~src:p ~dst:!i;
      i := p
    end
    else moving := false
  done;
  place t !i ~time ~seq ~slot

let sift_down t ~hole ~src =
  let time = t.times.(src) and seq = t.seqs.(src) and slot = t.heap.(src) in
  let i = ref hole and moving = ref true in
  while !moving do
    let left = (2 * !i) + 1 in
    if left >= t.size then moving := false
    else begin
      let c =
        if left + 1 < t.size && entry_before t (left + 1) left then left + 1
        else left
      in
      let tc = t.times.(c) in
      if tc < time || (tc = time && t.seqs.(c) < seq) then begin
        move t ~src:c ~dst:!i;
        i := c
      end
      else moving := false
    end
  done;
  place t !i ~time ~seq ~slot

(* Queue a slot that is not queued, with a fresh sequence number.
   Inlined so that the caller's unboxed [time] is never boxed. *)
let[@inline] arm t slot ~time =
  let i = t.size in
  t.size <- i + 1;
  place t i ~time ~seq:t.next_seq ~slot;
  t.next_seq <- t.next_seq + 1;
  sift_up t ~hole:i ~src:i

(* Re-key a queued slot in place.  The fresh seq is larger than every
   seq already in the heap, so when the time does not strictly decrease
   the entry can only sink; when it strictly decreases it can only
   rise (its new key is then strictly below both children's). *)
let[@inline] rekey t slot ~time =
  let i = t.index.(slot) in
  let old_time = t.times.(i) in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  if time < old_time then sift_up t ~hole:i ~src:i
  else sift_down t ~hole:i ~src:i

(* Fill position [i], which the caller has just vacated, with the last
   entry, sifting it in whichever direction the heap property needs. *)
let fill_hole t i =
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    if i > 0 && entry_before t last ((i - 1) / 2) then
      sift_up t ~hole:i ~src:last
    else sift_down t ~hole:i ~src:last
  end

(* Unqueue a queued slot. *)
let remove t slot =
  let i = t.index.(slot) in
  t.index.(slot) <- -1;
  fill_hole t i

(* Remove and return the root's timer, releasing a one-shot's slot.
   The caller has already read its time. *)
let pop_min t =
  let slot = t.heap.(0) in
  let tm = t.slots.(slot) in
  t.index.(slot) <- -1;
  fill_hole t 0;
  if tm.oneshot then release t tm;
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
  let tm = new_timer t f ~oneshot:true in
  arm t tm.slot ~time;
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
    remove t tm.slot;
    if tm.oneshot then release t tm
  end

(* ------------------------------------------------------------------ *)
(* Reusable timers                                                     *)
(* ------------------------------------------------------------------ *)

module Timer = struct
  type timer = handle

  let create owner action = new_timer owner action ~oneshot:false

  let set_action tm f = tm.action <- f

  let set_at tm ~time =
    let t = tm.owner in
    if Float.is_nan time then invalid_arg "Sim.Timer.set_at: NaN time";
    if time < t.clock.(0) then
      invalid_arg
        (Printf.sprintf "Sim.Timer.set_at: time %g is before current time %g"
           time t.clock.(0));
    if t.index.(tm.slot) >= 0 then rekey t tm.slot ~time
    else arm t tm.slot ~time

  let set tm ~delay =
    let t = tm.owner in
    if Float.is_nan delay then invalid_arg "Sim.Timer.set: NaN delay";
    if delay < 0. then
      invalid_arg (Printf.sprintf "Sim.Timer.set: negative delay %g" delay);
    let time = t.clock.(0) +. delay in
    if t.index.(tm.slot) >= 0 then rekey t tm.slot ~time
    else arm t tm.slot ~time

  let cancel = cancel
  let pending = pending
end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let execute t tm =
  t.executed <- t.executed + 1;
  (match t.observers with
   | [] -> ()
   | obs ->
     let time = t.clock.(0) in
     List.iter (fun f -> f time) obs);
  tm.action ()

let step t ~until =
  if Float.is_nan until then invalid_arg "Sim.step: NaN horizon";
  if t.size = 0 then false
  else begin
    let time = t.times.(0) in
    if time > until then false
    else begin
      let tm = pop_min t in
      t.clock.(0) <- time;
      execute t tm;
      true
    end
  end

let run t ~until =
  if Float.is_nan until then invalid_arg "Sim.run: NaN horizon";
  if until < t.clock.(0) then
    invalid_arg
      (Printf.sprintf "Sim.run: horizon %g is before current time %g" until
         t.clock.(0));
  let continue = ref true in
  while !continue do
    if t.size = 0 then continue := false
    else begin
      let time = t.times.(0) in
      if time > until then continue := false
      else begin
        let tm = pop_min t in
        t.clock.(0) <- time;
        execute t tm
      end
    end
  done;
  (* The queue is drained of events at or before [until]; the clock always
     lands exactly on the horizon. *)
  t.clock.(0) <- until

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

(* Wall clock and stop predicate are polled once per [guard_mask + 1]
   events (~0.2 ms of hot-path work); the event budget is a single int
   compare so it is checked every iteration.  This loop is deliberately
   separate from [run]: unbudgeted runs keep the untouched hot path. *)
let guard_mask = 1023

let run_guarded t ~until ?max_events ?max_wall ?(wall_clock = Sys.time)
    ?(stop = fun () -> false) () =
  if Float.is_nan until then invalid_arg "Sim.run_guarded: NaN horizon";
  if until < t.clock.(0) then
    invalid_arg
      (Printf.sprintf "Sim.run_guarded: horizon %g is before current time %g"
         until t.clock.(0));
  let wall0 = match max_wall with Some _ -> wall_clock () | None -> 0. in
  let executed0 = t.executed in
  let reason = ref Completed in
  let continue = ref true in
  while !continue do
    if t.size = 0 then continue := false
    else begin
      let time = t.times.(0) in
      if time > until then continue := false
      else begin
        let ran = t.executed - executed0 in
        (match max_events with
         | Some m when ran >= m ->
           reason := Event_budget ran;
           continue := false
         | _ -> ());
        if !continue && ran land guard_mask = 0 then
          if stop () then begin
            reason := Stop_requested;
            continue := false
          end
          else (
            match max_wall with
            | Some w ->
              let elapsed = wall_clock () -. wall0 in
              if elapsed > w then begin
                reason := Wall_budget elapsed;
                continue := false
              end
            | None -> ());
        if !continue then begin
          let tm = pop_min t in
          t.clock.(0) <- time;
          execute t tm
        end
      end
    end
  done;
  (* On completion the clock lands exactly on the horizon, as in [run];
     on an early stop it stays at the last executed event so the partial
     state is internally consistent and the run can be resumed. *)
  if !reason = Completed then t.clock.(0) <- until;
  !reason

let run_to_completion t =
  while t.size > 0 do
    let time = t.times.(0) in
    let tm = pop_min t in
    t.clock.(0) <- time;
    execute t tm
  done
