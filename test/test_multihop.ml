let small_spec =
  {
    Core.Multihop.num_switches = 4;
    connections = 12;
    tau = 0.01;
    buffer = Some 30;
    duration = 60.;
    warmup = 20.;
    seed = 7;
  }

let test_structure () =
  let r = Core.Multihop.run small_spec in
  Alcotest.(check int) "trunk count" 3 (Array.length r.trunk_queues);
  Alcotest.(check int) "utils per trunk" 3 (Array.length r.trunk_utils);
  Alcotest.(check int) "all connections built" 12 (Array.length r.conns)

let test_hop_distribution () =
  let r = Core.Multihop.run small_spec in
  let hops = List.init 12 (Core.Multihop.hops r) in
  List.iter
    (fun h -> Alcotest.(check bool) "hops in 1..3" true (h >= 1 && h <= 3))
    hops;
  (* the classes cycle, so each of 1,2,3 appears equally often *)
  let count k = List.length (List.filter (( = ) k) hops) in
  Alcotest.(check int) "1-hop count" 4 (count 1);
  Alcotest.(check int) "2-hop count" 4 (count 2);
  Alcotest.(check int) "3-hop count" 4 (count 3)

let test_traffic_flows () =
  let r = Core.Multihop.run small_spec in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "every connection progressed" true
        (Tcp.Connection.delivered c > 0))
    r.conns;
  Array.iter
    (fun (u1, u2) ->
      Alcotest.(check bool) "utils within [0,1]" true
        (u1 >= 0. && u1 <= 1. && u2 >= 0. && u2 <= 1.))
    r.trunk_utils

let test_determinism () =
  let run () =
    let r = Core.Multihop.run small_spec in
    Array.map Tcp.Connection.delivered r.conns
  in
  Alcotest.(check bool) "same seed, same outcome" true (run () = run ())

let test_gateway_variants () =
  (* The chain runs under every gateway discipline without violating the
     basic invariants. *)
  List.iter
    (fun buffer_kind ->
      let spec = { small_spec with Core.Multihop.buffer = buffer_kind } in
      let r = Core.Multihop.run spec in
      Array.iter
        (fun c ->
          Alcotest.(check bool) "progress" true (Tcp.Connection.delivered c > 0))
        r.conns)
    [ Some 10; Some 30; None ]

let test_bad_spec () =
  let raises f = try ignore (f () : Core.Multihop.result); false
    with Invalid_argument _ -> true in
  Alcotest.(check bool) "too few switches" true
    (raises (fun () ->
         Core.Multihop.run { small_spec with Core.Multihop.num_switches = 1 }));
  Alcotest.(check bool) "bad window" true
    (raises (fun () ->
         Core.Multihop.run { small_spec with Core.Multihop.warmup = 60. }))

let suite =
  ( "multihop",
    [
      Alcotest.test_case "structure" `Quick test_structure;
      Alcotest.test_case "hop distribution" `Quick test_hop_distribution;
      Alcotest.test_case "traffic flows" `Quick test_traffic_flows;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "gateway variants" `Quick test_gateway_variants;
      Alcotest.test_case "bad spec" `Quick test_bad_spec;
    ] )
