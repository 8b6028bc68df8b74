(* Golden event trace: the full JSONL trace of a short, deterministic
   one-way run on the long-wire dumbbell (the quickstart scenario cut to
   12 simulated seconds so the file stays reviewable).

   The run records the compact binary trace and the JSONL is produced by
   the offline exporter — exactly the [netsim trace export] pipeline —
   so this golden pins both the event stream and the binary round trip.

   The output is diffed against the committed [trace_golden.jsonl] by the
   [runtest] alias.  Any change to packet timing, hook ordering, the
   binary encoding or the JSONL rendering shows up as a diff; an
   intentional change is accepted with

     dune promote test/golden/trace_golden.jsonl *)

let () =
  let scenario =
    Core.Scenario.make ~name:"golden-trace" ~tau:1.0 ~buffer:(Some 20)
      ~conns:[ Core.Scenario.conn Core.Scenario.Forward ]
      ~duration:12. ~warmup:2. ~validate:true ()
  in
  let buf = Buffer.create (1 lsl 16) in
  let r =
    Core.Runner.run
      ~obs:(Obs.Probe.setup ~metrics:false ~btrace:(Buffer.add_string buf) ())
      scenario
  in
  (match Core.Runner.validation_report r with
   | Some report when not (Validate.Report.is_clean report) ->
     prerr_endline (Validate.Report.to_string report);
     failwith "golden trace scenario violated an invariant"
   | _ -> ());
  match Obs.Btrace.export_jsonl (Buffer.contents buf) print_string with
  | Error msg -> failwith ("golden binary trace unreadable: " ^ msg)
  | Ok (_, Some (Obs.Btrace.Torn msg | Obs.Btrace.Corrupt msg)) ->
    failwith ("golden binary trace stopped early: " ^ msg)
  | Ok (_, None) -> ()
