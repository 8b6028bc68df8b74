open Engine
open Net

(* 50 Kbps link: 500-byte packets serialize in 80 ms, 50-byte in 8 ms. *)
let make_link ?(bandwidth = 50_000.) ?(prop_delay = 0.01) ~buffer sim =
  Link.create sim ~id:0 ~name:"test" ~src:0 ~dst:1 ~bandwidth ~prop_delay
    ~buffer

let packet ?(id = 0) ?(conn = 1) ?(kind = Packet.Data) ?(seq = 0) ?(size = 500)
    () =
  {
    Packet.id;
    conn;
    kind;
    seq;
    size;
    src = 0;
    dst = 1;
    retransmit = false;
  }

let test_delivery_timing () =
  let sim = Sim.create () in
  let link = make_link ~prop_delay:0.01 ~buffer:None sim in
  let arrival = ref None in
  Link.set_deliver link (fun _ -> arrival := Some (Sim.now sim));
  ignore (Link.send link (packet ()) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  (* tx 0.08 + prop 0.01 *)
  Alcotest.(check (option (float 1e-9))) "arrival time" (Some 0.09) !arrival

let test_serialization () =
  (* Two back-to-back packets: second arrives one tx time after the first. *)
  let sim = Sim.create () in
  let link = make_link ~prop_delay:0. ~buffer:None sim in
  let arrivals = ref [] in
  Link.set_deliver link (fun p -> arrivals := (p.Packet.seq, Sim.now sim) :: !arrivals);
  ignore (Link.send link (packet ~seq:0 ()) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet ~seq:1 ()) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  Alcotest.(check (list (pair int (float 1e-9))))
    "arrivals"
    [ (0, 0.08); (1, 0.16) ]
    (List.rev !arrivals)

let test_mixed_sizes () =
  (* A data packet followed by an ACK: the ACK leaves 8 ms later. *)
  let sim = Sim.create () in
  let link = make_link ~prop_delay:0. ~buffer:None sim in
  let arrivals = ref [] in
  Link.set_deliver link (fun p -> arrivals := (p.Packet.kind, Sim.now sim) :: !arrivals);
  ignore (Link.send link (packet ~kind:Packet.Data ~size:500 ()) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet ~kind:Packet.Ack ~size:50 ()) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  match List.rev !arrivals with
  | [ (Packet.Data, t1); (Packet.Ack, t2) ] ->
    Alcotest.(check (float 1e-9)) "data at" 0.08 t1;
    Alcotest.(check (float 1e-9)) "ack 8ms later" 0.088 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_drop_tail_capacity () =
  (* Buffer of 2 includes the packet in service (paper: C = B + 2P). *)
  let sim = Sim.create () in
  let link = make_link ~prop_delay:0. ~buffer:(Some 2) sim in
  Link.set_deliver link (fun _ -> ());
  Alcotest.(check bool) "1 ok" true (Link.send link (packet ~seq:0 ()) = `Ok);
  Alcotest.(check bool) "2 ok" true (Link.send link (packet ~seq:1 ()) = `Ok);
  Alcotest.(check bool) "3 dropped" true
    (Link.send link (packet ~seq:2 ()) = `Dropped);
  Alcotest.(check int) "queue includes in-service" 2 (Link.queue_length link);
  Alcotest.(check int) "drop counter" 1 (Link.total_drops link);
  Sim.run sim ~until:1.;
  Alcotest.(check int) "drained" 0 (Link.queue_length link)

let test_busy_time () =
  let sim = Sim.create () in
  let link = make_link ~prop_delay:0. ~buffer:None sim in
  Link.set_deliver link (fun _ -> ());
  ignore (Link.send link (packet ()) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet ()) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:10.;
  Alcotest.(check (float 1e-9)) "busy two tx times" 0.16
    (Link.busy_time link ~now:10.);
  (* a third packet: busy time is measured mid-transmission too *)
  ignore (Link.send link (packet ()) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:10.04;
  Alcotest.(check (float 1e-9)) "mid-transmission" 0.2
    (Link.busy_time link ~now:10.04)

let test_counters_by_kind () =
  let sim = Sim.create () in
  let link = make_link ~prop_delay:0. ~buffer:(Some 1) sim in
  Link.set_deliver link (fun _ -> ());
  ignore (Link.send link (packet ~kind:Packet.Data ()) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet ~kind:Packet.Ack ~size:50 ()) : [ `Ok | `Dropped ]);
  let c = Link.counters link in
  Alcotest.(check int) "data enq" 1 c.Link.enq_data;
  Alcotest.(check int) "ack dropped" 1 c.Link.drop_ack;
  Sim.run sim ~until:1.;
  Alcotest.(check int) "data departed" 1 c.Link.dep_data;
  Alcotest.(check int) "bytes" 500 c.Link.dep_bytes

let test_hooks () =
  let sim = Sim.create () in
  let link = make_link ~prop_delay:0. ~buffer:(Some 1) sim in
  Link.set_deliver link (fun _ -> ());
  let enq = ref [] and dep = ref [] and dropped = ref 0 in
  Link.on_enqueue link (fun _t _p qlen -> enq := qlen :: !enq);
  Link.on_depart link (fun _t _p qlen -> dep := qlen :: !dep);
  Link.on_drop link (fun _t _p -> incr dropped);
  ignore (Link.send link (packet ()) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet ()) : [ `Ok | `Dropped ]);
  Sim.run sim ~until:1.;
  Alcotest.(check (list int)) "enqueue qlens" [ 1 ] (List.rev !enq);
  Alcotest.(check (list int)) "depart qlens" [ 0 ] (List.rev !dep);
  Alcotest.(check int) "drop hook" 1 !dropped

(* Minor words per packet through a FIFO link, measured on a second
   batch so that the ring and the event heap have already grown. *)
let words_per_packet ~hooked =
  let sim = Sim.create () in
  let link = make_link ~prop_delay:0.001 ~buffer:None sim in
  Link.set_deliver link (fun _ -> ());
  if hooked then begin
    Link.on_enqueue link (fun _t _p _qlen -> ());
    Link.on_depart link (fun _t _p _qlen -> ())
  end;
  let n = 1000 in
  let batch = Array.init n (fun i -> packet ~id:i ~seq:i ()) in
  let send_batch () =
    Array.iter (fun p -> ignore (Link.send link p : [ `Ok | `Dropped ])) batch;
    Sim.run_to_completion sim
  in
  send_batch ();
  let before = Gc.minor_words () in
  send_batch ();
  (Gc.minor_words () -. before) /. float_of_int n

(* A hook fire boxes the current time once (2 words) and allocates
   nothing else, so an enqueue and a depart hook add at most 4 words a
   packet.  A closure built per fire and a [Queue] cell and [Some] per
   queued packet took it to 16 more.

   A packet through a hookless link costs nothing when the build inlines
   across modules: [Sim.Timer.set], [Units.transmission_time] and
   [Link.tx_time] all inline into [Link.maybe_start], so the
   serialization time is never boxed (with any one of them a call, it
   is, 2 words).  Under -opaque it costs 6, where [Sim.now] also returns
   the time boxed at the start and the end of each serialization.  The
   bound of 1 fails that build and one float boxed again per packet. *)
let test_hook_allocation () =
  let bare = words_per_packet ~hooked:false in
  let hooked = words_per_packet ~hooked:true in
  if bare > 1. then
    Alcotest.failf
      "a hookless link allocates %.2f minor words per packet (bound 1): \
       build in dune-workspace's release profile, not --profile dev"
      bare;
  if hooked -. bare > 4. then
    Alcotest.failf
      "hooks add %.2f minor words per packet (%.2f against %.2f; bound 4)"
      (hooked -. bare) hooked bare

let test_contents () =
  let sim = Sim.create () in
  let link = make_link ~prop_delay:0. ~buffer:None sim in
  Link.set_deliver link (fun _ -> ());
  ignore (Link.send link (packet ~seq:7 ()) : [ `Ok | `Dropped ]);
  ignore (Link.send link (packet ~seq:8 ()) : [ `Ok | `Dropped ]);
  let seqs = List.map (fun p -> p.Packet.seq) (Link.contents link) in
  Alcotest.(check (list int)) "head first" [ 7; 8 ] seqs

let test_tx_time () =
  let sim = Sim.create () in
  let link = make_link sim ~buffer:None in
  Alcotest.(check (float 1e-12)) "data" 0.08 (Link.tx_time link ~bytes:500);
  Alcotest.(check (float 1e-12)) "ack" 0.008 (Link.tx_time link ~bytes:50)

let test_create_validation () =
  let sim = Sim.create () in
  let check_bad msg buffer =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (make_link sim ~buffer : Link.t))
  in
  check_bad "Link.create: buffer must be positive" (Some 0);
  check_bad "Link.create: buffer must be positive" (Some (-3));
  (* A positive or infinite buffer is fine. *)
  ignore (make_link sim ~buffer:(Some 1) : Link.t);
  ignore (make_link sim ~buffer:None : Link.t)

let prop_conservation =
  (* enqueued = departed + still queued, for any arrival pattern *)
  QCheck.Test.make ~name:"link packet conservation" ~count:100
    QCheck.(list (int_range 0 80))
    (fun delays_ms ->
      let sim = Sim.create () in
      let link = make_link ~prop_delay:0.001 ~buffer:(Some 5) sim in
      let delivered = ref 0 in
      Link.set_deliver link (fun _ -> incr delivered);
      List.iteri
        (fun i ms ->
          ignore
            (Sim.schedule sim ~delay:(float_of_int (ms * i) /. 1000.) (fun () ->
                 ignore (Link.send link (packet ~seq:i ()) : [ `Ok | `Dropped ]))
              : Sim.handle))
        delays_ms;
      Sim.run_to_completion sim;
      let c = Link.counters link in
      c.Link.enq_data = c.Link.dep_data
      && !delivered = c.Link.dep_data
      && c.Link.enq_data + c.Link.drop_data = List.length delays_ms
      && Link.queue_length link = 0)

(* The delay line under both links and hosts: hand-offs fire at their own
   deadlines, a flush cancels the rest in packet-id order, a rejected
   delay keeps nothing, and the line keeps working after a flush. *)
let test_delay_line () =
  let sim = Sim.create () in
  let line = Delay_line.create sim in
  let got = ref [] in
  Delay_line.set_deliver line (fun p ->
      got := (p.Packet.id, Sim.now sim) :: !got);
  List.iter
    (fun (id, delay) -> Delay_line.push line (packet ~id ()) ~delay)
    [ (3, 2.); (1, 1.); (2, 3.); (4, 1.) ];
  Sim.run sim ~until:1.5;
  Alcotest.(check (list (pair int (float 0.)))) "due hand-offs, push order"
    [ (1, 1.); (4, 1.) ] (List.rev !got);
  let flushed = ref [] in
  Delay_line.flush line (fun p -> flushed := p.Packet.id :: !flushed);
  Alcotest.(check (list int)) "flush in packet-id order" [ 2; 3 ]
    (List.rev !flushed);
  Alcotest.(check int) "no event left" 0 (Sim.queue_length sim);
  Alcotest.check_raises "NaN delay" (Invalid_argument "Sim.Timer.set: NaN delay")
    (fun () -> Delay_line.push line (packet ~id:6 ()) ~delay:Float.nan);
  Delay_line.flush line (fun p ->
      Alcotest.failf "rejected packet %d was kept" p.Packet.id);
  Delay_line.push line (packet ~id:5 ()) ~delay:0.5;
  Sim.run sim ~until:10.;
  Alcotest.(check (list (pair int (float 0.)))) "reused after a flush"
    [ (1, 1.); (4, 1.); (5, 2.) ] (List.rev !got)

(* A delay line against one one-shot event per push.  Both simulators
   run the same operations: pushes with delays from a small set (so
   same-instant ties happen), a rejected NaN or negative delay, unrelated
   timers, random flushes and runs forward; a delivery of an id divisible
   by 4 pushes a child from inside its hand-off.  Every delivery, flush
   and tick is logged with its time, and after each operation so is the
   number of hand-offs still queued: the two logs must be equal.  The
   reference flushes by cancelling its pending handles in id order, so
   equality also means a flush comes out in packet-id order and leaves no
   hand-off queued, and that a rejected push keeps no packet. *)
type line_op =
  | Push of int * float
  | Bad_push of float
  | Tick of float
  | Flush
  | Advance of float

type line_log = Got of int | Flushed of int | Ticked of int | Queued of int

let line_delays = [| 0.; 0.5; 1.; 1.5 |]

let line_op_gen =
  QCheck.Gen.(
    let delay = map (Array.get line_delays) (int_range 0 3) in
    frequency
      [
        (6, map2 (fun id d -> Push (id, d)) (int_range 0 999) delay);
        (1, map (fun b -> Bad_push (if b then Float.nan else -0.5)) bool);
        (2, map (fun d -> Tick d) delay);
        (1, return Flush);
        (2, map (fun d -> Advance d) delay);
      ])

let print_line_op = function
  | Push (id, d) -> Printf.sprintf "push %d %g" id d
  | Bad_push d -> Printf.sprintf "bad %g" d
  | Tick d -> Printf.sprintf "tick %g" d
  | Flush -> "flush"
  | Advance d -> Printf.sprintf "advance %g" d

let run_line_ops ~line ops =
  let sim = Sim.create () in
  let log = ref [] in
  let note e = log := (e, Sim.now sim) :: !log in
  let ticks = ref 0 in
  let push_ref = ref (fun _ ~delay:_ -> ()) in
  let deliver (p : Packet.t) =
    note (Got p.id);
    if p.id < 1_000_000 && p.id mod 4 = 0 then
      !push_ref (packet ~id:(p.id + 1_000_000) ())
        ~delay:line_delays.(p.id / 4 mod 4)
  in
  let push, flush =
    if line then begin
      let l = Delay_line.create sim in
      Delay_line.set_deliver l deliver;
      ( (fun p ~delay -> Delay_line.push l p ~delay),
        fun () -> Delay_line.flush l (fun p -> note (Flushed p.Packet.id)) )
    end
    else begin
      let live = Hashtbl.create 16 in
      ( (fun (p : Packet.t) ~delay ->
          let h =
            Sim.schedule sim ~delay (fun () ->
                Hashtbl.remove live p.id;
                deliver p)
          in
          Hashtbl.replace live p.id h),
        fun () ->
          let ids = Hashtbl.fold (fun id _ acc -> id :: acc) live [] in
          let ids = List.sort Int.compare ids in
          List.iter (fun id -> Sim.cancel (Hashtbl.find live id)) ids;
          Hashtbl.reset live;
          List.iter (fun id -> note (Flushed id)) ids )
    end
  in
  push_ref := push;
  List.iteri
    (fun i op ->
      (match op with
       | Push (id, delay) -> push (packet ~id:((id * 1000) + i) ()) ~delay
       | Bad_push delay ->
         (* The reference never schedules it. *)
         if line then begin
           match push (packet ~id:(1_000_000_000 + i) ()) ~delay with
           | () -> note (Got (-1))
           | exception Invalid_argument _ -> ()
         end
       | Tick delay ->
         incr ticks;
         ignore
           (Sim.schedule sim ~delay (fun () ->
                decr ticks;
                note (Ticked i))
             : Sim.handle)
       | Flush -> flush ()
       | Advance d -> Sim.run sim ~until:(Sim.now sim +. d));
      note (Queued (Sim.queue_length sim - !ticks)))
    ops;
  Sim.run_to_completion sim;
  flush ();
  note (Queued (Sim.queue_length sim));
  List.rev !log

let prop_delay_line_as_schedule =
  QCheck.Test.make ~name:"delay line runs as one Sim.schedule per push"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_line_op ops))
       QCheck.Gen.(list_size (int_range 0 60) line_op_gen))
    (fun ops -> run_line_ops ~line:true ops = run_line_ops ~line:false ops)

(* [Link.contents], [queue_length] and [busy_time] against a list model
   of the packets a link holds, in arrival order, kept from [send]'s
   outcome and the link's drop and depart hooks: Random Drop and Fair
   Queueing evictions and outage cuts all leave through the drop hook.
   The link is busy exactly while it holds a packet, so the model's busy
   time is the time its list was non-empty.  FIFO and Random Drop serve
   in arrival order, so their contents must equal the list; Fair
   Queueing's must hold the same packets.  For every discipline the head
   of [contents] is the packet in service, so it must be the next to
   depart unless a cut comes first. *)
let prop_link_model =
  let op_gen =
    QCheck.Gen.(
      pair
        (map (Array.get [| 0.; 0.; 0.004; 0.02; 0.05; 0.1 |]) (int_range 0 5))
        (int_range 0 9))
  in
  QCheck.Test.make ~name:"link contents, length and busy time follow a list"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(triple int int (list (pair float int)))
       QCheck.Gen.(
         triple (int_range 0 2) (int_range 1 4)
           (list_size (int_range 0 80) op_gen)))
    (fun (disc, buffer, ops) ->
      let discipline =
        match disc with
        | 0 -> Discipline.Fifo
        | 1 -> Discipline.Random_drop { seed = buffer }
        | _ -> Discipline.Fair_queue
      in
      let ordered = disc < 2 in
      let sim = Sim.create () in
      let link =
        Link.create ~discipline sim ~id:0 ~name:"model" ~src:0 ~dst:1
          ~bandwidth:50_000. ~prop_delay:0.01 ~buffer:(Some buffer)
      in
      Link.install_faults link
        ~ingress:(fun _ -> `Pass)
        ~extra_delay:(fun _ -> 0.)
        ~clone:(fun p -> p);
      Link.set_deliver link (fun _ -> ());
      let live = ref [] and busy = ref 0. and busy_since = ref 0. in
      let next = ref None in
      let fail fmt =
        Printf.ksprintf
          (fun s -> QCheck.Test.fail_reportf "t=%g: %s" (Sim.now sim) s)
          fmt
      in
      let remove p =
        live := List.filter (fun q -> q != p) !live;
        if !live = [] then busy := !busy +. (Sim.now sim -. !busy_since)
      in
      let ids ps = List.map (fun (p : Packet.t) -> p.id) ps in
      let check () =
        let now = Sim.now sim in
        let contents = Link.contents link in
        if Link.queue_length link <> List.length !live then
          fail "queue_length %d, model %d" (Link.queue_length link)
            (List.length !live);
        let got = ids contents and want = ids !live in
        if ordered && got <> want then fail "contents out of order";
        if List.sort Int.compare got <> List.sort Int.compare want then
          fail "contents hold other packets";
        let model =
          !busy +. if !live = [] then 0. else now -. !busy_since
        in
        if Float.abs (Link.busy_time link ~now -. model) > 1e-9 then
          fail "busy_time %.12g, model %.12g" (Link.busy_time link ~now) model;
        next := match contents with p :: _ -> Some p | [] -> None
      in
      Link.on_drop link (fun _ p ->
          if List.memq p !live then begin
            (match !next with Some q when q == p -> next := None | _ -> ());
            remove p
          end);
      Link.on_depart link (fun _ p qlen ->
          (match !next with
           | Some q when q != p -> fail "departed %d, in service %d" p.id q.id
           | _ -> ());
          next := None;
          if ordered && (match !live with q :: _ -> q != p | [] -> true) then
            fail "departed %d out of arrival order" p.id;
          remove p;
          if qlen <> List.length !live then
            fail "depart qlen %d, model %d" qlen (List.length !live));
      let time = ref 0. in
      List.iteri
        (fun i (gap, code) ->
          time := !time +. gap;
          ignore
            (Sim.at sim ~time:!time (fun () ->
                 (match code with
                  | 0 -> Link.set_down link true
                  | 1 -> Link.set_down link false
                  | 2 -> ()
                  | c ->
                    let kind = if c < 6 then Packet.Data else Packet.Ack in
                    let size = if c < 6 then 500 else 50 in
                    let p = packet ~id:i ~conn:(c mod 3) ~kind ~size () in
                    let was_empty = !live = [] in
                    (match Link.send link p with
                     | `Ok ->
                       if was_empty then busy_since := Sim.now sim;
                       live := !live @ [ p ]
                     | `Dropped -> ()));
                 check ())
              : Sim.handle))
        ops;
      Sim.run_to_completion sim;
      check ();
      !live = [])

let suite =
  ( "link",
    [
      Alcotest.test_case "delivery timing" `Quick test_delivery_timing;
      Alcotest.test_case "serialization" `Quick test_serialization;
      Alcotest.test_case "mixed sizes" `Quick test_mixed_sizes;
      Alcotest.test_case "drop-tail capacity" `Quick test_drop_tail_capacity;
      Alcotest.test_case "busy time" `Quick test_busy_time;
      Alcotest.test_case "counters by kind" `Quick test_counters_by_kind;
      Alcotest.test_case "hooks" `Quick test_hooks;
      Alcotest.test_case "a hook fire allocates only the boxed time" `Quick
        test_hook_allocation;
      Alcotest.test_case "contents" `Quick test_contents;
      Alcotest.test_case "tx time" `Quick test_tx_time;
      Alcotest.test_case "create validation" `Quick test_create_validation;
      Alcotest.test_case "delay line" `Quick test_delay_line;
      QCheck_alcotest.to_alcotest prop_conservation;
      QCheck_alcotest.to_alcotest prop_delay_line_as_schedule;
      QCheck_alcotest.to_alcotest prop_link_model;
    ] )
