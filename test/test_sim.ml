open Engine

let test_schedule_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.schedule sim ~delay:2. (note "c") : Sim.handle);
  ignore (Sim.schedule sim ~delay:1. (note "a") : Sim.handle);
  ignore (Sim.schedule sim ~delay:1.5 (note "b") : Sim.handle);
  Sim.run sim ~until:10.;
  Alcotest.(check (list string)) "execution order" [ "a"; "b"; "c" ]
    (List.rev !log);
  Alcotest.(check (float 0.)) "clock at horizon" 10. (Sim.now sim)

let test_same_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule sim ~delay:1. (fun () -> log := i :: !log) : Sim.handle)
  done;
  Sim.run sim ~until:2.;
  Alcotest.(check (list int)) "same-instant FIFO" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~delay:1. (fun () -> fired := true) in
  Alcotest.(check bool) "pending before" true (Sim.pending h);
  Sim.cancel h;
  Alcotest.(check bool) "pending after cancel" false (Sim.pending h);
  Sim.run sim ~until:5.;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  (* double-cancel is a no-op *)
  Sim.cancel h

let test_nested_scheduling () =
  let sim = Sim.create () in
  let times = ref [] in
  let rec ping n () =
    times := Sim.now sim :: !times;
    if n > 0 then ignore (Sim.schedule sim ~delay:1. (ping (n - 1)) : Sim.handle)
  in
  ignore (Sim.schedule sim ~delay:1. (ping 3) : Sim.handle);
  Sim.run sim ~until:10.;
  Alcotest.(check (list (float 1e-9))) "cascade times" [ 1.; 2.; 3.; 4. ]
    (List.rev !times)

let test_run_until_stops () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Sim.schedule sim ~delay:1. tick : Sim.handle)
  in
  ignore (Sim.schedule sim ~delay:1. tick : Sim.handle);
  Sim.run sim ~until:5.5;
  Alcotest.(check int) "events within horizon" 5 !count;
  Sim.run sim ~until:7.5;
  Alcotest.(check int) "resumes from horizon" 7 !count

let test_zero_delay () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:0. (fun () ->
         log := "outer" :: !log;
         ignore
           (Sim.schedule sim ~delay:0. (fun () -> log := "inner" :: !log)
             : Sim.handle))
      : Sim.handle);
  Sim.run sim ~until:1.;
  Alcotest.(check (list string)) "zero delay ordering" [ "outer"; "inner" ]
    (List.rev !log)

(* The exact Invalid_argument messages are part of the interface: schedule
   and at (and run) each distinguish NaN from out-of-range and name the
   offending value.  Pinned so they cannot drift apart again. *)
let test_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule: negative delay -1") (fun () ->
      ignore (Sim.schedule sim ~delay:(-1.) (fun () -> ()) : Sim.handle))

let test_nan_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "NaN delay" (Invalid_argument "Sim.schedule: NaN delay")
    (fun () ->
      ignore (Sim.schedule sim ~delay:Float.nan (fun () -> ()) : Sim.handle));
  Alcotest.check_raises "NaN time" (Invalid_argument "Sim.at: NaN time")
    (fun () ->
      ignore (Sim.at sim ~time:Float.nan (fun () -> ()) : Sim.handle));
  Alcotest.check_raises "NaN horizon" (Invalid_argument "Sim.run: NaN horizon")
    (fun () -> Sim.run sim ~until:Float.nan);
  (* A NaN horizon compares false with every time, so an unchecked step
     would run this event. *)
  ignore (Sim.at sim ~time:100. (fun () -> ()) : Sim.handle);
  Alcotest.check_raises "NaN step horizon"
    (Invalid_argument "Sim.step: NaN horizon") (fun () ->
      ignore (Sim.step sim ~until:Float.nan : bool));
  Alcotest.(check int) "step ran nothing" 0 (Sim.events_run sim)

let test_at_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:5. (fun () -> ()) : Sim.handle);
  Sim.run sim ~until:5.;
  Alcotest.check_raises "past time rejected"
    (Invalid_argument "Sim.at: time 1 is before current time 5") (fun () ->
      ignore (Sim.at sim ~time:1. (fun () -> ()) : Sim.handle))

let test_run_past_horizon_rejected () =
  let sim = Sim.create () in
  Sim.run sim ~until:5.;
  Alcotest.check_raises "past horizon rejected"
    (Invalid_argument "Sim.run: horizon 3 is before current time 5") (fun () ->
      Sim.run sim ~until:3.)

let test_run_horizon_semantics () =
  let sim = Sim.create () in
  let fired = ref false in
  (* An event exactly at the horizon runs, and the clock lands on it. *)
  ignore (Sim.schedule sim ~delay:7. (fun () -> fired := true) : Sim.handle);
  Sim.run sim ~until:7.;
  Alcotest.(check bool) "event at horizon fires" true !fired;
  Alcotest.(check (float 0.)) "clock is exactly the horizon" 7. (Sim.now sim);
  (* Re-running to the same horizon is a no-op. *)
  Sim.run sim ~until:7.;
  Alcotest.(check (float 0.)) "idempotent" 7. (Sim.now sim);
  (* With only future events, the clock still lands on the horizon. *)
  ignore (Sim.schedule sim ~delay:100. (fun () -> ()) : Sim.handle);
  Sim.run sim ~until:10.;
  Alcotest.(check (float 0.)) "horizon without events" 10. (Sim.now sim)

let test_events_run () =
  let sim = Sim.create () in
  for _ = 1 to 4 do
    ignore (Sim.schedule sim ~delay:1. (fun () -> ()) : Sim.handle)
  done;
  let h = Sim.schedule sim ~delay:1. (fun () -> ()) in
  Sim.cancel h;
  Sim.run_to_completion sim;
  Alcotest.(check int) "cancelled events not counted" 4 (Sim.events_run sim)

let test_step () =
  let sim = Sim.create () in
  let count = ref 0 in
  for _ = 1 to 3 do
    ignore (Sim.schedule sim ~delay:1. (fun () -> incr count) : Sim.handle)
  done;
  Alcotest.(check bool) "step runs one" true (Sim.step sim ~until:10.);
  Alcotest.(check int) "one event" 1 !count;
  Alcotest.(check bool) "step again" true (Sim.step sim ~until:10.);
  ignore (Sim.step sim ~until:10. : bool);
  Alcotest.(check bool) "exhausted" false (Sim.step sim ~until:10.)

let test_on_event_observer () =
  let sim = Sim.create () in
  let seen = ref [] in
  Sim.on_event sim (fun () -> seen := Sim.now sim :: !seen);
  ignore (Sim.schedule sim ~delay:1. (fun () -> ()) : Sim.handle);
  let h = Sim.schedule sim ~delay:2. (fun () -> ()) in
  ignore (Sim.schedule sim ~delay:3. (fun () -> ()) : Sim.handle);
  Sim.cancel h;
  Sim.run sim ~until:10.;
  Alcotest.(check (list (float 1e-9)))
    "observer sees non-cancelled events in order" [ 1.; 3. ]
    (List.rev !seen)

(* Cancel semantics under random schedules: exactly the non-cancelled
   events fire, each once, and no handle stays pending after a drain. *)
let prop_cancel_semantics =
  QCheck.Test.make ~name:"cancel semantics under random schedules" ~count:200
    QCheck.(list (pair (float_bound_inclusive 50.) bool))
    (fun events ->
      let sim = Sim.create () in
      let fired = Array.make (List.length events) 0 in
      let handles =
        List.mapi
          (fun i (delay, _) ->
            Sim.schedule sim ~delay (fun () -> fired.(i) <- fired.(i) + 1))
          events
      in
      List.iteri
        (fun i (_, cancelled) ->
          if cancelled then Sim.cancel (List.nth handles i))
        events;
      Sim.run_to_completion sim;
      List.for_all2
        (fun h ((_, cancelled), count) ->
          (not (Sim.pending h)) && count = (if cancelled then 0 else 1))
        handles
        (List.combine events (Array.to_list fired)))

(* Observers fire in registration order (they used to run reversed,
   which broke any validate-then-trace hook pairing). *)
let test_observer_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.on_event sim (fun _ -> log := 1 :: !log);
  Sim.on_event sim (fun _ -> log := 2 :: !log);
  Sim.on_event sim (fun _ -> log := 3 :: !log);
  ignore (Sim.schedule sim ~delay:1. (fun () -> ()) : Sim.handle);
  Sim.run_to_completion sim;
  Alcotest.(check (list int)) "registration order" [ 1; 2; 3 ] (List.rev !log)

(* A cancel-heavy workload must not accumulate dead handles until their
   scheduled times: compaction keeps the queue bounded even though every
   cancelled event lies 1000 s in the future. *)
let test_cancel_compaction () =
  let sim = Sim.create () in
  for _ = 1 to 10_000 do
    Sim.cancel (Sim.schedule sim ~delay:1000. (fun () -> ()))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "queue stays bounded (len %d)" (Sim.queue_length sim))
    true
    (Sim.queue_length sim <= 128);
  Sim.run_to_completion sim;
  Alcotest.(check int) "no cancelled event ran" 0 (Sim.events_run sim)

(* The compaction invariant under arbitrary cancel patterns: at any
   point the queue holds at most 2x the live events plus the compaction
   threshold. *)
let prop_cancel_bounded =
  QCheck.Test.make ~name:"cancel keeps queue length within 2*live + 64"
    ~count:200
    QCheck.(list bool)
    (fun cancels ->
      let sim = Sim.create () in
      let live = ref 0 in
      List.for_all
        (fun cancel ->
          let h = Sim.schedule sim ~delay:100. (fun () -> ()) in
          if cancel then Sim.cancel h else incr live;
          Sim.queue_length sim <= (2 * !live) + 64)
        cancels)

(* ------------------------------------------------------------------ *)
(* Reusable timers (Sim.Timer)                                         *)
(* ------------------------------------------------------------------ *)

let test_timer_basics () =
  let sim = Sim.create () in
  let fires = ref [] in
  let tm = Sim.Timer.create sim (fun () -> fires := Sim.now sim :: !fires) in
  Alcotest.(check bool) "fresh timer not pending" false (Sim.Timer.pending tm);
  Sim.Timer.set tm ~delay:2.;
  Alcotest.(check bool) "armed" true (Sim.Timer.pending tm);
  (* Re-arming moves the deadline: only the final setting fires. *)
  Sim.Timer.set tm ~delay:5.;
  Sim.run sim ~until:3.;
  Alcotest.(check (list (float 0.))) "old deadline gone" [] !fires;
  Sim.run sim ~until:10.;
  Alcotest.(check (list (float 1e-9))) "fires at re-armed time" [ 5. ] !fires;
  Alcotest.(check bool) "disarmed after firing" false (Sim.Timer.pending tm);
  (* The same timer is reusable after firing, and set_at takes an
     absolute time. *)
  Sim.Timer.set_at tm ~time:12.;
  Sim.Timer.cancel tm;
  Alcotest.(check bool) "cancel disarms" false (Sim.Timer.pending tm);
  Sim.Timer.cancel tm;  (* double-cancel is a no-op *)
  Sim.Timer.set tm ~delay:4.;
  Sim.run_to_completion sim;
  Alcotest.(check (list (float 1e-9))) "reused after cancel" [ 14.; 5. ] !fires

let test_timer_same_time_fifo () =
  (* A timer armed at the same instant as plain scheduled events keeps
     its insertion rank: arming consumes one sequence number exactly
     like Sim.schedule. *)
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.schedule sim ~delay:1. (note "a") : Sim.handle);
  let tm = Sim.Timer.create sim (note "b") in
  Sim.Timer.set tm ~delay:1.;
  ignore (Sim.schedule sim ~delay:1. (note "c") : Sim.handle);
  Sim.run_to_completion sim;
  Alcotest.(check (list string)) "insertion order at a tie" [ "a"; "b"; "c" ]
    (List.rev !log)

(* The retransmission-timer workload: every "ACK" pushes the deadline
   out, so the timer is re-armed thousands of times but fires once.  The
   queue must stay at the live-event count (one ack chain + one timer) —
   re-arming in place must not leave debris behind. *)
let test_timer_rearm_storm () =
  let sim = Sim.create () in
  let fires = ref [] in
  let tm = Sim.Timer.create sim (fun () -> fires := Sim.now sim :: !fires) in
  let acks = 10_000 in
  let max_len = ref 0 in
  let rec ack n () =
    Sim.Timer.set tm ~delay:3.;
    max_len := max !max_len (Sim.queue_length sim);
    if n > 0 then
      ignore (Sim.schedule sim ~delay:0.001 (ack (n - 1)) : Sim.handle)
  in
  ignore (Sim.schedule sim ~delay:0.001 (ack (acks - 1)) : Sim.handle);
  Sim.run_to_completion sim;
  let last_ack_time = 0.001 *. float_of_int acks in
  Alcotest.(check (list (float 1e-6)))
    "single firing, 3s after the last re-arm"
    [ last_ack_time +. 3. ]
    !fires;
  Alcotest.(check bool)
    (Printf.sprintf "queue stayed at live size (max %d)" !max_len)
    true (!max_len <= 2);
  Alcotest.(check int) "acks + one timer firing" (acks + 1)
    (Sim.events_run sim)

let test_timer_set_action () =
  let sim = Sim.create () in
  let log = ref [] in
  let tm = Sim.Timer.create sim (fun () -> log := "old" :: !log) in
  Sim.Timer.set tm ~delay:1.;
  Sim.Timer.set_action tm (fun () -> log := "new" :: !log);
  Sim.run_to_completion sim;
  Alcotest.(check (list string)) "replaced action fires" [ "new" ] !log

let test_timer_errors () =
  let sim = Sim.create () in
  let tm = Sim.Timer.create sim (fun () -> ()) in
  Alcotest.check_raises "NaN delay"
    (Invalid_argument "Sim.Timer.set: NaN delay") (fun () ->
      Sim.Timer.set tm ~delay:Float.nan);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.Timer.set: negative delay -1") (fun () ->
      Sim.Timer.set tm ~delay:(-1.));
  Alcotest.check_raises "NaN time"
    (Invalid_argument "Sim.Timer.set_at: NaN time") (fun () ->
      Sim.Timer.set_at tm ~time:Float.nan);
  Sim.run sim ~until:5.;
  Alcotest.check_raises "past time"
    (Invalid_argument "Sim.Timer.set_at: time 1 is before current time 5")
    (fun () -> Sim.Timer.set_at tm ~time:1.)

(* One-shot events return their slots when they fire or are cancelled,
   and the next events take them.  The old handles must stay dead: a
   stale cancel must not remove the events that now hold their slots. *)
let test_stale_handles () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  let fired = Sim.schedule sim ~delay:1. (note "fired") in
  let cancelled = Sim.schedule sim ~delay:2. (note "cancelled") in
  Sim.cancel cancelled;
  Sim.run sim ~until:1.5;
  let a = Sim.schedule sim ~delay:1. (note "a") in
  let b = Sim.schedule sim ~delay:2. (note "b") in
  Sim.cancel fired;
  Sim.cancel cancelled;
  Alcotest.(check bool) "fired handle not pending" false (Sim.pending fired);
  Alcotest.(check bool) "cancelled handle not pending" false
    (Sim.pending cancelled);
  Alcotest.(check bool) "new events pending" true
    (Sim.pending a && Sim.pending b);
  Alcotest.(check int) "stale cancels removed nothing" 2
    (Sim.queue_length sim);
  Sim.run_to_completion sim;
  Alcotest.(check (list string)) "new events fire" [ "fired"; "a"; "b" ]
    (List.rev !log)

(* Re-arming a persistent timer must not allocate: arm and re-key are
   inlined into [Timer.set], so the new time is never boxed.  The
   constant delay is a static float, so the call itself boxes nothing
   either.  A bound rather than an exact count: CI builds on OCaml 4.14
   and 5.1. *)
let test_timer_rearm_allocation () =
  let sim = Sim.create () in
  let timers = 16 and events = 100_000 in
  let fired = ref 0 in
  for i = 0 to timers - 1 do
    let tm = Sim.Timer.create sim ignore in
    Sim.Timer.set_action tm (fun () ->
        incr fired;
        if !fired <= events - timers then Sim.Timer.set tm ~delay:1.0);
    Sim.Timer.set_at tm ~time:(float_of_int i /. float_of_int timers)
  done;
  let before = Gc.minor_words () in
  Sim.run_to_completion sim;
  let words = (Gc.minor_words () -. before) /. float_of_int events in
  Alcotest.(check int) "every event ran" events (Sim.events_run sim);
  if words > 0.5 then
    Alcotest.failf "re-arming allocates %.2f minor words per event (bound 0.5)"
      words

(* Observational equivalence: a Timer driven by arbitrary set/cancel/
   advance interleavings behaves exactly like the closure-based
   cancel-then-reschedule pattern it replaces — same fire times, same
   order (including same-instant ties against other traffic), same
   pending answers.  Delays are drawn from a half-integer grid so that
   ties actually occur. *)
let prop_timer_equivalence =
  let n_timers = 4 in
  let op =
    QCheck.(
      map
        (fun (tag, i, steps) ->
          let d = float_of_int steps /. 2. in
          (tag mod 3, i mod n_timers, d))
        (triple (int_bound 2) (int_bound (n_timers - 1)) (int_bound 10)))
  in
  QCheck.Test.make ~name:"Timer.set/cancel == cancel+reschedule" ~count:300
    (QCheck.list op)
    (fun ops ->
      let simA = Sim.create () and simB = Sim.create () in
      let logA = ref [] and logB = ref [] in
      let timers =
        Array.init n_timers (fun i ->
            Sim.Timer.create simA (fun () ->
                logA := (i, Sim.now simA) :: !logA))
      in
      let href = Array.make n_timers None in
      List.iter
        (fun (tag, i, d) ->
          match tag with
          | 0 ->
            (* arm / re-arm *)
            Sim.Timer.set timers.(i) ~delay:d;
            (match href.(i) with Some h -> Sim.cancel h | None -> ());
            href.(i) <-
              Some
                (Sim.schedule simB ~delay:d (fun () ->
                     logB := (i, Sim.now simB) :: !logB))
          | 1 ->
            Sim.Timer.cancel timers.(i);
            (match href.(i) with Some h -> Sim.cancel h | None -> ())
          | _ ->
            (* advance both clocks together *)
            Sim.run simA ~until:(Sim.now simA +. d);
            Sim.run simB ~until:(Sim.now simB +. d))
        ops;
      let pending_agree =
        Array.to_list
          (Array.mapi
             (fun i tm ->
               Sim.Timer.pending tm
               = (match href.(i) with
                  | Some h -> Sim.pending h
                  | None -> false))
             timers)
        |> List.for_all Fun.id
      in
      Sim.run_to_completion simA;
      Sim.run_to_completion simB;
      pending_agree && !logA = !logB
      && Sim.events_run simA = Sim.events_run simB)

(* ------------------------------------------------------------------ *)
(* Model-based: random programs vs a sorted (time, seq) reference       *)
(* ------------------------------------------------------------------ *)

(* Opcodes 0-2 [schedule], 3-4 [at], 5 [cancel] (of any handle ever
   made, so fired and cancelled ones too), 6-7 [Timer.set], 10
   [Timer.cancel] and 11 [Timer.set_at] on one of three timers, 8-9
   [step] and 12 [run_guarded] with an event budget of 0 to 3.  Times
   are clamped into [now, 5], so at most six distinct instants exist
   and same-time ties are common: a timer re-armed while pending,
   cancelled and armed again from idle meets one-shots at the same
   instants.  The model orders by (time, seq); an arm or re-arm takes a
   fresh seq, exactly like a new schedule.  Every event that runs must
   be the model's next one, at its time, and a guarded run must stop
   for the model's reason; after every operation the queue length and
   the [pending] answer of every handle and timer must match the model,
   so a handle whose slot was reused cannot pass for live. *)
let prop_model =
  QCheck.Test.make
    ~name:"model: schedule/at/cancel/Timer.set/step vs sorted list" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 200)
        (triple (int_bound 12) (int_bound 5) small_nat))
    (fun ops ->
      let sim = Sim.create () in
      let ok = ref true in
      let model = ref [] and seq = ref 0 and next_id = ref 0 in
      (* Each event that runs must be the model's head. *)
      let fire id () =
        match !model with
        | (mt, _, x) :: rest when x = id && Sim.now sim = mt -> model := rest
        | _ -> ok := false
      in
      let handles = ref [||] in
      let timers =
        Array.init 3 (fun i -> Sim.Timer.create sim (fire (-(i + 1))))
      in
      let insert ~time id =
        model :=
          List.merge compare
            (List.filter (fun (_, _, x) -> x <> id) !model)
            [ (time, !seq, id) ];
        incr seq
      in
      let remove id = model := List.filter (fun (_, _, x) -> x <> id) !model in
      let due until =
        List.length (List.filter (fun (mt, _, _) -> mt <= until) !model)
      in
      List.iter
        (fun (op, t, k) ->
          let now = Sim.now sim in
          let time = Float.max now (float_of_int t) in
          (if op <= 4 then begin
             let id = !next_id in
             incr next_id;
             let h =
               if op <= 2 then Sim.schedule sim ~delay:(time -. now) (fire id)
               else Sim.at sim ~time (fire id)
             in
             handles := Array.append !handles [| (id, h) |];
             insert ~time id
           end
           else if op = 5 then begin
             let n = Array.length !handles in
             if n > 0 then begin
               let id, h = !handles.(k mod n) in
               Sim.cancel h;
               remove id
             end
           end
           else if op <= 7 then begin
             let i = k mod 3 in
             Sim.Timer.set timers.(i) ~delay:(time -. now);
             insert ~time (-(i + 1))
           end
           else if op <= 9 then begin
             let before = List.length !model and expect = due 5. > 0 in
             let ran = Sim.step sim ~until:5. in
             if ran <> expect || List.length !model <> before - Bool.to_int ran
             then ok := false
           end
           else if op = 10 then begin
             let i = k mod 3 in
             Sim.Timer.cancel timers.(i);
             remove (-(i + 1))
           end
           else if op = 11 then begin
             let i = k mod 3 in
             Sim.Timer.set_at timers.(i) ~time;
             insert ~time (-(i + 1))
           end
           else begin
             let budget = k mod 4 and before = List.length !model in
             let expect = min budget (due time) in
             let reason =
               Sim.run_guarded sim ~until:time ~max_events:budget ()
             in
             let ran = before - List.length !model in
             let complete = due time = 0 in
             (match reason with
              | Sim.Completed ->
                if not complete || Sim.now sim <> time then ok := false
              | Sim.Event_budget n ->
                if complete || n <> budget then ok := false
              | _ -> ok := false);
             if ran <> expect then ok := false
           end);
          if Sim.queue_length sim <> List.length !model then ok := false;
          let queued id = List.exists (fun (_, _, x) -> x = id) !model in
          Array.iter
            (fun (id, h) -> if Sim.pending h <> queued id then ok := false)
            !handles;
          Array.iteri
            (fun i tm ->
              if Sim.Timer.pending tm <> queued (-(i + 1)) then ok := false)
            timers)
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* Space leaks: vacated heap slots must not keep closures alive         *)
(* ------------------------------------------------------------------ *)

(* Build the closure and its payload inside a helper so no stack root
   outlives the scheduling; after that, only a heap slot that was not
   reset to the sentinel could keep the payload from being collected.
   Each test reads [sim] after collecting, so the heap array stays
   reachable throughout. *)
let[@inline never] schedule_finalised sim ~delay collected =
  let payload = Bytes.make 16 'x' in
  Gc.finalise (fun _ -> incr collected) payload;
  Sim.schedule sim ~delay (fun () -> Bytes.set payload 0 'y')

(* With two events, removing the first moves the second into the root
   (leaving a stale copy in the vacated last slot), and removing the
   second empties the heap (leaving it in slot 0): both paths must
   reset their slot. *)
let test_fired_closures_collected () =
  let sim = Sim.create () in
  let collected = ref 0 in
  ignore (schedule_finalised sim ~delay:1. collected : Sim.handle);
  ignore (schedule_finalised sim ~delay:2. collected : Sim.handle);
  Sim.run_to_completion sim;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "fired closures collected" 2 !collected;
  Alcotest.(check int) "both ran" 2 (Sim.events_run sim)

let[@inline never] schedule_two_then_cancel sim collected =
  let first = schedule_finalised sim ~delay:1. collected in
  let second = schedule_finalised sim ~delay:2. collected in
  Sim.cancel first;
  Sim.cancel second

let test_cancelled_closures_collected () =
  let sim = Sim.create () in
  let collected = ref 0 in
  schedule_two_then_cancel sim collected;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "cancelled closures collected" 2 !collected;
  Alcotest.(check int) "queue empty" 0 (Sim.queue_length sim)

let suite =
  ( "sim",
    [
      Alcotest.test_case "schedule order" `Quick test_schedule_order;
      Alcotest.test_case "same-time FIFO" `Quick test_same_time_order;
      Alcotest.test_case "cancel" `Quick test_cancel;
      Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
      Alcotest.test_case "run until horizon" `Quick test_run_until_stops;
      Alcotest.test_case "zero delay" `Quick test_zero_delay;
      Alcotest.test_case "negative delay rejected" `Quick
        test_negative_delay_rejected;
      Alcotest.test_case "NaN rejected with distinct messages" `Quick
        test_nan_rejected;
      Alcotest.test_case "at past rejected" `Quick test_at_past_rejected;
      Alcotest.test_case "run past horizon rejected" `Quick
        test_run_past_horizon_rejected;
      Alcotest.test_case "run horizon semantics" `Quick
        test_run_horizon_semantics;
      Alcotest.test_case "on_event observer" `Quick test_on_event_observer;
      Alcotest.test_case "events_run counts" `Quick test_events_run;
      Alcotest.test_case "step" `Quick test_step;
      Alcotest.test_case "observer order" `Quick test_observer_order;
      Alcotest.test_case "cancel compaction" `Quick test_cancel_compaction;
      Alcotest.test_case "timer basics" `Quick test_timer_basics;
      Alcotest.test_case "timer same-time FIFO" `Quick
        test_timer_same_time_fifo;
      Alcotest.test_case "timer re-arm storm" `Quick test_timer_rearm_storm;
      Alcotest.test_case "timer set_action" `Quick test_timer_set_action;
      Alcotest.test_case "timer error messages" `Quick test_timer_errors;
      Alcotest.test_case "stale handles after slot reuse" `Quick
        test_stale_handles;
      Alcotest.test_case "timer re-arm allocation" `Quick
        test_timer_rearm_allocation;
      QCheck_alcotest.to_alcotest prop_cancel_semantics;
      QCheck_alcotest.to_alcotest prop_cancel_bounded;
      QCheck_alcotest.to_alcotest prop_timer_equivalence;
      QCheck_alcotest.to_alcotest prop_model;
      Alcotest.test_case "fired closures collected" `Quick
        test_fired_closures_collected;
      Alcotest.test_case "cancelled closures collected" `Quick
        test_cancelled_closures_collected;
    ] )
