(* Independent oracles: identities the model must satisfy whatever its
   parameters, checked on the paper-horizon runs the figures come from.
   Unlike the goldens, they pin no output of the code; they fail when
   the model is wrong. *)

(* The utilization identity.  A bottleneck's busy fraction over the
   measurement window [t0, t1) must equal the bytes it sent in the window
   x 8 / bandwidth / (t1 - t0).  The two sides differ only at the
   window's edges, because only the packets in service at t0 and at t1
   lie partly outside it:
   - the packet in service at t0 departs inside the window, so the bytes
     side counts all of its serialization and the busy side only the part
     after t0;
   - the packet in service at t1 departs after the window, so the busy
     side counts the part before t1 and the bytes side none of it.
   Each edge is worth at most one serialization time of the largest
   packet, a data packet (ACKs are smaller), and the two pull in opposite
   directions, so the gap is at most one data packet's serialization time
   over the window. *)
let test_utilization_identity () =
  List.iter
    (fun (f : Core.Experiments.figure) ->
      let r = Core.Runner.run f.scenario in
      let window = r.t1 -. r.t0 in
      let size (d : Trace.Dep_log.record) =
        match d.kind with
        | Net.Packet.Data -> Tcp.Config.data_size
        | Net.Packet.Ack -> (fst r.conns.(d.conn - 1)).Core.Scenario.ack_size
      in
      let check dir util dep =
        let link = Trace.Dep_log.link dep in
        let bytes =
          List.fold_left
            (fun acc d -> acc + size d)
            0
            (Trace.Dep_log.in_window dep ~t0:r.t0 ~t1:r.t1)
        in
        let from_bytes =
          float_of_int (8 * bytes) /. Net.Link.bandwidth link /. window
        in
        let bound =
          Net.Link.tx_time link ~bytes:Tcp.Config.data_size /. window
        in
        let gap = Float.abs (util -. from_bytes) in
        if not (gap <= bound) then
          Alcotest.failf
            "%s %s: utilization %.6f, departed bytes give %.6f (gap %.3g > \
             bound %.3g)"
            f.fig dir util from_bytes gap bound
      in
      check "fwd" r.util_fwd r.dep_fwd;
      check "bwd" r.util_bwd r.dep_bwd)
    Core.Experiments.figures

let suite =
  ( "oracles",
    [
      Alcotest.test_case "utilization = departed bytes over the window" `Slow
        test_utilization_identity;
    ] )
