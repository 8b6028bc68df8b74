(* Golden-trace generator: runs the canonical one-way and two-way
   scenarios, a faulted two-way one, a timer-heavy two-way one and a
   many-flow two-way one (validation on) and prints a digest of each —
   drop count, both utilizations, final congestion windows, an MD5
   checksum over the full bottleneck queue series and one over each
   bottleneck's departure log (order, times and sojourns); the faulted
   scenario adds its fault ledgers and an MD5 checksum over its drops in
   order.

   The output is diffed against the committed [golden.digest] by the
   [runtest] alias; an intentional behaviour change is accepted with

     dune promote test/golden/golden.digest

   after eyeballing the new numbers against the paper's. *)

let series_checksum s =
  let buf = Buffer.create 4096 in
  Trace.Series.iter s ~f:(fun ~time ~value ->
      Buffer.add_string buf (Printf.sprintf "%.9g:%.9g;" time value));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Every departure in order, times and sojourns bit-exact (%h). *)
let deps_checksum dep =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (d : Trace.Dep_log.record) ->
      Buffer.add_string buf
        (Printf.sprintf "%h:%d:%s:%d:%h;" d.time d.conn
           (Net.Packet.kind_to_string d.kind) d.seq d.sojourn))
    (Trace.Dep_log.records dep);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest (scenario : Core.Scenario.t) =
  let r = Core.Runner.run ~logs:[ Departures ] scenario in
  (match Core.Runner.validation_report r with
  | Some report when not (Validate.Report.is_clean report) ->
    (* A golden scenario must also be invariant-clean; bail loudly so the
       digest never silently encodes a buggy run. *)
    prerr_endline (Validate.Report.to_string report);
    failwith "golden scenario violated an invariant"
  | _ -> ());
  Printf.printf "[%s]\n" scenario.Core.Scenario.name;
  Printf.printf "drops = %d\n" (Trace.Drop_log.total r.Core.Runner.drops);
  Printf.printf "util_fwd = %.6f\n" r.Core.Runner.util_fwd;
  Printf.printf "util_bwd = %.6f\n" r.Core.Runner.util_bwd;
  Array.iteri
    (fun i (_, conn) ->
      Printf.printf "cwnd_%d = %.6f\n" (i + 1)
        (Tcp.Sender.cwnd (Tcp.Connection.sender conn)))
    r.Core.Runner.conns;
  Printf.printf "queue_fwd_md5 = %s\n"
    (series_checksum (Trace.Queue_trace.series r.Core.Runner.q1));
  Printf.printf "queue_bwd_md5 = %s\n"
    (series_checksum (Trace.Queue_trace.series r.Core.Runner.q2));
  Printf.printf "deps_fwd_md5 = %s\n" (deps_checksum r.Core.Runner.dep_fwd);
  Printf.printf "deps_bwd_md5 = %s\n" (deps_checksum r.Core.Runner.dep_bwd);
  if r.Core.Runner.fault_plans <> [] then begin
    List.iter
      (fun (_, plan) -> Printf.printf "faults = %s\n" (Faults.Plan.summary plan))
      r.Core.Runner.fault_plans;
    (* Drop order pins the order of outage flushes. *)
    let buf = Buffer.create 4096 in
    List.iter
      (fun (d : Trace.Drop_log.record) ->
        Buffer.add_string buf
          (Printf.sprintf "%.9g:%d:%d:%s:%d;" d.time d.link d.conn
             (Net.Packet.kind_to_string d.kind) d.seq))
      (Trace.Drop_log.records r.Core.Runner.drops);
    Printf.printf "drops_md5 = %s\n"
      (Digest.to_hex (Digest.string (Buffer.contents buf)))
  end;
  print_newline ()

let () =
  let open Core.Scenario in
  (* The paper's baseline: one connection over the long-wire dumbbell. *)
  digest
    (make ~name:"one-way" ~tau:1.0 ~buffer:(Some 20)
       ~conns:[ conn Forward ]
       ~duration:120. ~warmup:40. ~validate:true ());
  (* Two-way traffic on the short wire: the regime where ACK compression
     and out-of-phase queues appear (Figures 4-7). *)
  digest
    (make ~name:"two-way" ~tau:0.01 ~buffer:(Some 20)
       ~conns:(stagger ~step:2. [ conn Forward; conn Reverse ])
       ~duration:120. ~warmup:40. ~validate:true ());
  (* Every fault kind on both bottlenecks of the long wire: with tau = 1 s
     each outage cuts packets in propagation as well as in the queue, and
     unordered jitter lets deliveries overtake each other. *)
  let faults =
    Faults.Spec.make
      ~loss:
        (Faults.Spec.Gilbert_elliott
           { p_enter = 0.01; p_exit = 0.3; loss_in_burst = 0.5;
             loss_outside = 0.002 })
      ~outage:{ Faults.Spec.windows = [ (60., 64.); (90., 92.) ]; flap = None }
      ~jitter:{ Faults.Spec.bound = 0.02; preserve_order = false }
      ~duplicate:0.01 ()
  in
  digest
    (make ~name:"two-way-faulted" ~tau:1.0 ~buffer:(Some 20)
       ~conns:(stagger ~step:2. [ conn Forward; conn Reverse ])
       ~duration:120. ~warmup:40. ~validate:true
       ~faults:[ (Fwd_bottleneck, faults); (Bwd_bottleneck, faults) ]
       ());
  (* The scheduler paths the other scenarios leave cold: a skewed sender
     makes one one-shot [Sim.schedule] per data packet, so one-shot
     events come and go for the whole run; a delayed-ACK receiver arms
     and cancels its timer per packet; and a paced sender drives the
     pacer. *)
  digest
    (make ~name:"two-way-timers" ~tau:0.01 ~buffer:(Some 20)
       ~conns:
         (stagger ~step:2.
            [ conn ~rtt_skew:0.05 Forward;
              conn ~delayed_ack:true Reverse;
              conn ~pacing:(Some 0.1) Forward ])
       ~duration:120. ~warmup:40. ~validate:true ());
  (* Fig-3's two-way Tahoe at 25+25: fifty retransmission timers, each
     re-armed on every ACK, share the queue with packet events and tie
     with them at the same instants, so the order in which the
     scheduler merges the two kinds shows in every departure. *)
  digest
    (make ~name:"many-flows" ~tau:0.01 ~buffer:(Some 20)
       ~conns:
         (stagger ~step:0.5
            (List.init 50 (fun i ->
                 conn (if i < 25 then Forward else Reverse))))
       ~duration:300. ~warmup:100. ~validate:true ())
