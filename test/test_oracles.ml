(* Independent oracles: identities the model must satisfy whatever its
   parameters, checked on the paper-horizon runs the figures come from.
   Unlike the goldens, they pin no output of the code; they fail when
   the model is wrong. *)

(* Each figure's paper-horizon run, shared by the identities below. *)
let runs =
  lazy
    (List.map
       (fun (f : Core.Experiments.figure) -> (f, Core.Runner.run f.scenario))
       Core.Experiments.figures)

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
    (fun ((f : Core.Experiments.figure), (r : Core.Runner.result)) ->
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
    (Lazy.force runs)

(* Little's law.  [Net.Link.queue_length] counts the packet in service
   and a [Dep_log] sojourn runs from acceptance to the end of
   serialization, so both sides count the same population: each packet
   the bottleneck accepted, for as long as it was there.  On these FIFO
   drop-tail runs without faults every accepted packet departs.  Over
   the window [t0, t1), the [Queue_trace] series' time-weighted mean x
   the window is the packets' time in the link inside the window, and
   the sojourns of the packets departing inside the window add up to
   their whole time in the link.  The two differ only by the packets in
   the link at the window's edges (m is the longest in-window sojourn,
   q0 and q1 the queue just before t0 and t1):
   - a packet accepted before t0 that departs inside the window adds its
     time before t0 to the sojourn side only, at most its own sojourn:
     at most q0 x m in all;
   - a packet accepted before t1 that departs at or after t1 adds its
     time inside the window to the queue side only.  In FIFO order that
     is at most the time of the one in service at t1: its wait, at most
     the sojourn of the packet that left as it went into service (m),
     plus the part of its serialization done by t1 (under one data
     packet's serialization time, tx): at most q1 x (m + tx) in all.
   The two pull in opposite directions, so the gap between the mean
   queue and the sojourns over the window is at most the larger of the
   two over the window.  The bound also allows 1e-9 of the mean queue
   for float rounding in the two sums. *)
let test_littles_law () =
  List.iter
    (fun ((f : Core.Experiments.figure), (r : Core.Runner.result)) ->
      let window = r.t1 -. r.t0 in
      let check dir q dep =
        let series = Trace.Queue_trace.series q in
        let before t =
          Option.value ~default:0.
            (Trace.Series.value_at series ~time:(Float.pred t))
        in
        let sum, longest =
          List.fold_left
            (fun (sum, longest) (d : Trace.Dep_log.record) ->
              (sum +. d.sojourn, Float.max longest d.sojourn))
            (0., 0.)
            (Trace.Dep_log.in_window dep ~t0:r.t0 ~t1:r.t1)
        in
        let mean =
          Option.value ~default:0. (Trace.Series.mean series ~t0:r.t0 ~t1:r.t1)
        in
        let from_sojourns = sum /. window in
        let tx =
          Net.Link.tx_time (Trace.Dep_log.link dep) ~bytes:Tcp.Config.data_size
        in
        let bound =
          (Float.max (before r.t0 *. longest)
             (before r.t1 *. (longest +. tx))
          /. window)
          +. (1e-9 *. mean)
        in
        let gap = Float.abs (mean -. from_sojourns) in
        if not (gap <= bound) then
          Alcotest.failf
            "%s %s: mean queue %.6f, sojourns give %.6f (gap %.3g > bound \
             %.3g)"
            f.fig dir mean from_sojourns gap bound
      in
      check "fwd" r.q1 r.dep_fwd;
      check "bwd" r.q2 r.dep_bwd)
    (Lazy.force runs)

let suite =
  ( "oracles",
    [
      Alcotest.test_case "utilization = departed bytes over the window" `Slow
        test_utilization_identity;
      Alcotest.test_case "mean queue = departed sojourns over the window"
        `Slow test_littles_law;
    ] )
