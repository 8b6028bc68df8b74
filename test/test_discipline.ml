open Net

let packet ?(conn = 1) ?(kind = Packet.Data) seq =
  {
    Packet.id = seq;
    conn;
    kind;
    seq;
    size = 500;
    src = 0;
    dst = 1;
    retransmit = false;
  }

let seqs_of d =
  List.map (fun p -> p.Packet.seq) (Discipline.contents d)

let drain d =
  let rec go acc =
    let p = Discipline.dequeue d in
    if p == Packet.none then List.rev acc else go (p.Packet.seq :: acc)
  in
  go []

(* --- FIFO ------------------------------------------------------------ *)

let test_fifo_order_and_droptail () =
  let d = Discipline.create Discipline.Fifo ~capacity:(Some 3) in
  Alcotest.(check bool) "a" true (Discipline.enqueue d (packet 0) ~in_service:0 = Discipline.Accepted);
  Alcotest.(check bool) "b" true (Discipline.enqueue d (packet 1) ~in_service:0 = Discipline.Accepted);
  (* an in-service packet counts against the buffer *)
  Alcotest.(check bool) "c rejected (2 stored + 1 in service)" true
    (Discipline.enqueue d (packet 2) ~in_service:1 = Discipline.Rejected);
  Alcotest.(check bool) "c fits without in-service" true
    (Discipline.enqueue d (packet 2) ~in_service:0 = Discipline.Accepted);
  Alcotest.(check (list int)) "fifo order" [ 0; 1; 2 ] (drain d)

(* --- Random drop ------------------------------------------------------ *)

let test_random_drop_always_drops_something () =
  let d =
    Discipline.create (Discipline.Random_drop { seed = 3 }) ~capacity:(Some 4)
  in
  for i = 0 to 3 do
    ignore (Discipline.enqueue d (packet i) ~in_service:0 : Discipline.outcome)
  done;
  (* buffer full: each arrival must cost exactly one packet, somewhere *)
  let arrivals = 50 in
  let rejected = ref 0 and evicted = ref 0 in
  for i = 4 to 3 + arrivals do
    match Discipline.enqueue d (packet i) ~in_service:0 with
    | Discipline.Accepted -> Alcotest.fail "accepted into a full buffer"
    | Discipline.Rejected -> incr rejected
    | Discipline.Evicted _ -> incr evicted
  done;
  Alcotest.(check int) "every overflow resolved" arrivals (!rejected + !evicted);
  Alcotest.(check int) "occupancy constant" 4 (Discipline.length d);
  (* with 50 arrivals and a uniform 1/5 chance of rejecting the arrival,
     both outcomes must occur *)
  Alcotest.(check bool) "sometimes rejects the arrival" true (!rejected > 0);
  Alcotest.(check bool) "sometimes evicts a queued packet" true (!evicted > 0)

let test_random_drop_service_order_fifo () =
  let d =
    Discipline.create (Discipline.Random_drop { seed = 5 }) ~capacity:(Some 10)
  in
  for i = 0 to 5 do
    ignore (Discipline.enqueue d (packet i) ~in_service:0 : Discipline.outcome)
  done;
  Alcotest.(check (list int)) "no overflow: plain FIFO" [ 0; 1; 2; 3; 4; 5 ]
    (drain d)

let test_random_drop_deterministic () =
  let run () =
    let d =
      Discipline.create (Discipline.Random_drop { seed = 9 }) ~capacity:(Some 3)
    in
    let log = ref [] in
    for i = 0 to 20 do
      match Discipline.enqueue d (packet i) ~in_service:0 with
      | Discipline.Accepted -> log := `A :: !log
      | Discipline.Rejected -> log := `R :: !log
      | Discipline.Evicted p -> log := `E p.Packet.seq :: !log
    done;
    !log
  in
  Alcotest.(check bool) "same seed same outcome" true (run () = run ())

(* The FIFO ring against a list model: over random push/pop sequences
   every outcome, every dequeued packet and the stored order agree, so
   wrap-around, growth and Random Drop's in-place removal keep service
   order.  Two pushes to one pop fill the buffer, so overflow is
   exercised at every capacity. *)
let prop_single_queue_model =
  QCheck.Test.make ~name:"fifo and random drop match a list model" ~count:300
    QCheck.(
      triple bool (int_range 1 40)
        (list_of_size Gen.(0 -- 300) (int_range 0 2)))
    (fun (random, cap, ops) ->
      let kind =
        if random then Discipline.Random_drop { seed = cap } else Discipline.Fifo
      in
      let d = Discipline.create kind ~capacity:(Some cap) in
      let rng = if random then Some (Engine.Rng.create ~seed:cap) else None in
      let model = ref [] and next = ref 0 in
      let push () =
        let p = packet !next in
        incr next;
        let n = List.length !model in
        let expected =
          if n < cap then begin
            model := !model @ [ p ];
            `Accepted
          end
          else
            match rng with
            | None -> `Rejected
            | Some rng ->
              let k = Engine.Rng.int rng ~bound:(n + 1) in
              if k = n then `Rejected
              else begin
                let victim = List.nth !model k in
                model := List.filteri (fun i _ -> i <> k) !model @ [ p ];
                `Evicted victim.Packet.seq
              end
        in
        let got =
          match Discipline.enqueue d p ~in_service:0 with
          | Discipline.Accepted -> `Accepted
          | Discipline.Rejected -> `Rejected
          | Discipline.Evicted v -> `Evicted v.Packet.seq
        in
        got = expected
      in
      let pop () =
        let got = Discipline.dequeue d in
        match !model with
        | [] -> got == Packet.none
        | p :: rest ->
          model := rest;
          got == p
      in
      List.for_all
        (fun op ->
          (if op < 2 then push () else pop ())
          && seqs_of d = List.map (fun p -> p.Packet.seq) !model)
        ops)

(* --- Fair queueing ---------------------------------------------------- *)

let test_fq_round_robin () =
  let d = Discipline.create Discipline.Fair_queue ~capacity:None in
  (* conn 1 floods; conn 2 sends a little *)
  List.iter
    (fun (conn, seq) ->
      ignore (Discipline.enqueue d (packet ~conn seq) ~in_service:0
          : Discipline.outcome))
    [ (1, 10); (1, 11); (1, 12); (2, 20); (2, 21) ];
  Alcotest.(check (list int)) "alternating service" [ 10; 20; 11; 21; 12 ]
    (drain d)

let test_fq_drops_from_longest () =
  let d = Discipline.create Discipline.Fair_queue ~capacity:(Some 4) in
  List.iter
    (fun (conn, seq) ->
      ignore (Discipline.enqueue d (packet ~conn seq) ~in_service:0
          : Discipline.outcome))
    [ (1, 10); (1, 11); (1, 12); (2, 20) ];
  (* conn 2's arrival must evict from conn 1 (the hog), not be rejected *)
  (match Discipline.enqueue d (packet ~conn:2 21) ~in_service:0 with
   | Discipline.Evicted victim ->
     Alcotest.(check int) "victim from the hog" 1 victim.Packet.conn;
     Alcotest.(check int) "tail of the hog's queue" 12 victim.Packet.seq
   | _ -> Alcotest.fail "expected an eviction");
  (* the hog's own arrival into a full buffer is simply rejected *)
  (match Discipline.enqueue d (packet ~conn:1 13) ~in_service:0 with
   | Discipline.Rejected -> ()
   | _ -> Alcotest.fail "hog should be rejected");
  Alcotest.(check int) "occupancy" 4 (Discipline.length d)

let test_fq_class_refill () =
  (* A class emptied and refilled must not be served twice in a round. *)
  let d = Discipline.create Discipline.Fair_queue ~capacity:None in
  ignore (Discipline.enqueue d (packet ~conn:1 0) ~in_service:0 : Discipline.outcome);
  Alcotest.(check (list int)) "drain" [ 0 ] (drain d);
  ignore (Discipline.enqueue d (packet ~conn:1 1) ~in_service:0 : Discipline.outcome);
  ignore (Discipline.enqueue d (packet ~conn:2 2) ~in_service:0 : Discipline.outcome);
  Alcotest.(check (list int)) "clean rotation" [ 1; 2 ] (drain d)

let test_kind_to_string () =
  Alcotest.(check string) "fifo" "fifo" (Discipline.kind_to_string Discipline.Fifo);
  Alcotest.(check string) "rd" "random-drop"
    (Discipline.kind_to_string (Discipline.Random_drop { seed = 1 }));
  Alcotest.(check string) "fq" "fair-queue"
    (Discipline.kind_to_string Discipline.Fair_queue)

let prop_fq_conservation =
  QCheck.Test.make ~name:"fair queue conserves packets" ~count:200
    QCheck.(list (pair (int_range 1 4) small_nat))
    (fun arrivals ->
      let d = Discipline.create Discipline.Fair_queue ~capacity:(Some 5) in
      let stored = ref 0 in
      List.iteri
        (fun i (conn, _) ->
          match Discipline.enqueue d (packet ~conn i) ~in_service:0 with
          | Discipline.Accepted -> incr stored
          | Discipline.Rejected -> ()
          | Discipline.Evicted _ -> ()  (* +1 stored, -1 evicted *))
        arrivals;
      let drained = List.length (drain d) in
      drained = !stored && Discipline.length d = 0)

let prop_fq_interleaves =
  (* With two equally loaded classes, service strictly alternates. *)
  QCheck.Test.make ~name:"fair queue alternates equal loads" ~count:100
    QCheck.(int_range 1 20)
    (fun n ->
      let d = Discipline.create Discipline.Fair_queue ~capacity:None in
      for i = 0 to n - 1 do
        ignore (Discipline.enqueue d (packet ~conn:1 i) ~in_service:0
            : Discipline.outcome);
        ignore (Discipline.enqueue d (packet ~conn:2 (100 + i)) ~in_service:0
            : Discipline.outcome)
      done;
      let rec alternates last = function
        | [] -> true
        | p :: rest -> p <> last && alternates p rest
      in
      let conns =
        let rec go acc =
          let p = Discipline.dequeue d in
          if p == Packet.none then List.rev acc else go (p.Packet.conn :: acc)
        in
        go []
      in
      alternates 0 conns)

let suite =
  ( "discipline",
    [
      Alcotest.test_case "fifo order and drop-tail" `Quick
        test_fifo_order_and_droptail;
      Alcotest.test_case "random drop resolves overflow" `Quick
        test_random_drop_always_drops_something;
      Alcotest.test_case "random drop serves FIFO" `Quick
        test_random_drop_service_order_fifo;
      Alcotest.test_case "random drop deterministic" `Quick
        test_random_drop_deterministic;
      Alcotest.test_case "fq round robin" `Quick test_fq_round_robin;
      Alcotest.test_case "fq drops from longest" `Quick test_fq_drops_from_longest;
      Alcotest.test_case "fq class refill" `Quick test_fq_class_refill;
      Alcotest.test_case "kind to string" `Quick test_kind_to_string;
      QCheck_alcotest.to_alcotest prop_single_queue_model;
      QCheck_alcotest.to_alcotest prop_fq_conservation;
      QCheck_alcotest.to_alcotest prop_fq_interleaves;
    ] )
