(* Differential tests for the Cc port.

   The classic zoo entries (tahoe and reno families, fixed) must
   reproduce frozen trajectories of the window machine they replaced,
   bit for bit after every step, and every entry is held to one digest
   of seeded event streams (a pin that moves means the entry's window
   arithmetic changed).  Finally, the AIMD entry earns its
   place in the zoo with the classic convergence property: two AIMD
   flows sharing a bottleneck drift toward fair shares. *)

open Tcp

(* ---------------- frozen trajectories ---------------- *)

(* cc_vectors.txt (format in its header) freezes 20 event sequences per
   classic spec at three maxwnd values.  Replaying a line through Cc
   must reproduce its per-step digest and final state. *)

let classic_specs =
  [
    Cc.spec "tahoe";
    Cc.spec "tahoe-unmodified";
    Cc.spec "reno";
    Cc.spec "reno-unmodified";
    Cc.spec ~params:[ ("w", 8.) ] "fixed";
    Cc.spec ~params:[ ("w", 50.) ] "fixed";
  ]

(* "MD5 CWND SSTHRESH WND SLOW_START RECOVERY" for [events].  Each ACK
   advances a cumulative counter by one packet; losses pass that counter
   as [highest_sent] (only NewReno reads it, and it is not replayed). *)
let replay spec ~maxwnd events =
  let cc = Cc_zoo.make spec ~maxwnd in
  let ackno = ref 0 in
  let state () =
    Printf.sprintf "%h %h %d %b %b" (Cc.cwnd cc) (Cc.ssthresh cc)
      (Cc.window cc) (Cc.in_slow_start cc) (Cc.in_recovery cc)
  in
  let buf = Buffer.create 1024 in
  let note () =
    Buffer.add_string buf (state ());
    Buffer.add_char buf ';'
  in
  note ();
  String.iter
    (fun e ->
      (match e with
       | 'a' ->
         incr ackno;
         if Cc.on_ack cc ~ackno:!ackno ~newly:1 then
           Alcotest.failf "%s asked for a hole retransmission" (Cc.name cc)
       | 'd' -> Cc.on_dup_ack cc
       | 'f' -> Cc.on_loss cc Cc.Fast_retransmit ~highest_sent:!ackno
       | 't' -> Cc.on_loss cc Cc.Timeout ~highest_sent:!ackno
       | 'r' -> Cc.reset cc
       | c -> Alcotest.failf "unknown event %C" c);
      note ())
    events;
  Printf.sprintf "%s %s" (Digest.to_hex (Digest.string (Buffer.contents buf)))
    (state ())

type vector = { spec : string; maxwnd : int; events : string; expected : string }

let vectors =
  lazy
    (Filename.concat (Filename.dirname Sys.executable_name) "cc_vectors.txt"
    |> fun path -> In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           if line = "" || line.[0] = '#' then None
           else
             match String.split_on_char ' ' line with
             | spec :: maxwnd :: events :: rest ->
               Some
                 {
                   spec;
                   maxwnd = int_of_string maxwnd;
                   events;
                   expected = String.concat " " rest;
                 }
             | _ -> failwith ("cc_vectors.txt: malformed line " ^ line)))

let test_frozen_vectors spec maxwnd () =
  let label = Cc.spec_to_string spec in
  let lines =
    List.filter
      (fun v -> v.spec = label && v.maxwnd = maxwnd)
      (Lazy.force vectors)
  in
  Alcotest.(check int) "trajectories on file" 20 (List.length lines);
  List.iteri
    (fun i v ->
      Alcotest.(check string)
        (Printf.sprintf "trajectory %d (%s)" i v.events)
        v.expected
        (replay spec ~maxwnd v.events))
    lines

let frozen_vector_cases =
  List.concat_map
    (fun spec ->
      List.map
        (fun maxwnd ->
          Alcotest.test_case
            (Printf.sprintf "frozen vectors: %s maxwnd=%d"
               (Cc.spec_to_string spec) maxwnd)
            `Quick
            (test_frozen_vectors spec maxwnd))
        [ 2; 9; 1000 ])
    classic_specs

(* ---------------- Reno fast-recovery pins through Cc ---------------- *)

(* 4.3-Reno fast recovery, step by step: halve, inflate by the three
   duplicates, inflate per further duplicate, deflate on new data. *)
let test_reno_pins_via_cc () =
  let c = Cc_zoo.make (Cc.spec "reno") ~maxwnd:1000 in
  let ackno = ref 0 in
  let ack () =
    incr ackno;
    ignore (Cc.on_ack c ~ackno:!ackno ~newly:1 : bool)
  in
  for _ = 1 to 19 do ack () done;
  Alcotest.(check (float 0.)) "slow start reached 20" 20. (Cc.cwnd c);
  Cc.on_loss c Cc.Fast_retransmit ~highest_sent:40;
  Alcotest.(check (float 0.)) "ssthresh halved" 10. (Cc.ssthresh c);
  Alcotest.(check (float 0.)) "cwnd inflated to ssthresh+3" 13. (Cc.cwnd c);
  Alcotest.(check bool) "in recovery" true (Cc.in_recovery c);
  Cc.on_dup_ack c;
  Cc.on_dup_ack c;
  Alcotest.(check (float 0.)) "each dup inflates by one" 15. (Cc.cwnd c);
  ack ();
  Alcotest.(check (float 0.)) "new ACK deflates to ssthresh" 10. (Cc.cwnd c);
  Alcotest.(check bool) "recovery over" false (Cc.in_recovery c);
  Cc.on_loss c Cc.Timeout ~highest_sent:45;
  Alcotest.(check (float 0.)) "timeout collapses to 1" 1. (Cc.cwnd c);
  Alcotest.(check (float 0.)) "timeout halves ssthresh" 5. (Cc.ssthresh c)

(* ---------------- AIMD convergence ---------------- *)

(* Two AIMD flows with the same (a, b) sharing the forward bottleneck,
   the second starting late enough that the first owns the whole pipe:
   the Chiu-Jain argument says repeated shared decreases pull the window
   shares together.  Jain's index of the mean cwnds must end high, and
   a genuinely unfair start must have improved.

   The bottleneck runs the random-drop gateway: under pure drop-tail the
   two deterministic sawtooths can lock into the paper's phase effect —
   at a few resonant staggers the late joiner keeps catching every drop
   and fairness sticks near 0.6, which is a finding about FIFO gateways,
   not about AIMD.  Randomizing the victim restores the textbook
   dynamics the property is about.

   Thresholds are calibrated against an exhaustive offline sweep of the
   whole generator domain (3 x 3 x 16 combinations): worst final
   fairness 0.873, and every start below 0.8 improved. *)
let jain x y =
  let s = x +. y in
  if s = 0. then 1. else s *. s /. (2. *. ((x *. x) +. (y *. y)))

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let prop_aimd_converges =
  QCheck.Test.make ~name:"two AIMD flows converge toward fair shares"
    ~count:4
    QCheck.(
      make
        ~print:(fun (a, b, stagger) ->
          Printf.sprintf "a=%g b=%g stagger=%d" a b stagger)
        Gen.(
          triple (oneofl [ 0.5; 1.; 2. ]) (oneofl [ 0.3; 0.5; 0.7 ])
            (int_range 10 25)))
    (fun (a, b, stagger) ->
      let cc = Cc.spec ~params:[ ("a", a); ("b", b) ] "aimd" in
      let scenario =
        Core.Scenario.make
          ~name:(Printf.sprintf "aimd-fair-%g-%g-%d" a b stagger)
          ~tau:0.01 ~buffer:(Some 20)
          ~gateway:(Net.Discipline.Random_drop { seed = 11 })
          ~conns:
            [
              Core.Scenario.conn ~cc Core.Scenario.Forward;
              Core.Scenario.conn ~cc ~start_time:(float_of_int stagger)
                Core.Scenario.Forward;
            ]
          ~duration:300. ~warmup:0. ()
      in
      let r = Core.Runner.run scenario in
      let resample i =
        Trace.Series.resample
          (Trace.Cwnd_trace.cwnd r.Core.Runner.cwnds.(i))
          ~t0:(float_of_int stagger) ~t1:300. ~dt:0.5
      in
      let w1 = resample 0 and w2 = resample 1 in
      let n = Array.length w1 in
      (* early: the 10 s right after the late flow joins; late: the
         last 50 s of the run *)
      let early = jain (mean (Array.sub w1 0 20)) (mean (Array.sub w2 0 20)) in
      let late =
        jain
          (mean (Array.sub w1 (n - 100) 100))
          (mean (Array.sub w2 (n - 100) 100))
      in
      if late < 0.8 then
        QCheck.Test.fail_reportf
          "late fairness %.3f < 0.8 (early %.3f, a=%g b=%g stagger=%d)" late
          early a b stagger;
      if early < 0.8 && late <= early then
        QCheck.Test.fail_reportf
          "unfair start never converged: early %.3f -> late %.3f (a=%g b=%g \
           stagger=%d)"
          early late a b stagger;
      true)

(* ---------------- per-entry pins ---------------- *)

(* cc_vectors.txt covers the classic entries only, with single-packet
   ACKs and no RTT samples; these pins hold every table entry, newreno,
   aimd, compound and oracle included.  Each entry runs seeded streams
   at maxwnd 2, 9 and 1000: a send advances the highest sequence sent,
   an ACK acknowledges 1-3 packets cumulatively, a duplicate ACK goes to
   on_dup_ack in any state, and losses pass the true highest_sent.
   After every step the state (floats in %h) and on_ack's answer are
   folded into one MD5 per entry. *)
let pin_digest name =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun maxwnd ->
      for stream = 1 to 4 do
        let cc = Cc_zoo.make (Cc.spec name) ~maxwnd in
        let rng = Engine.Rng.create ~seed:((maxwnd * 10) + stream) in
        let una = ref 0 and highest = ref (-1) in
        for _ = 1 to 300 do
          let step =
            match Engine.Rng.int rng ~bound:40 with
            | n when n < 10 ->
              incr highest;
              "s"
            | n when n < 24 ->
              let newly = 1 + Engine.Rng.int rng ~bound:3 in
              let ackno = !una + newly in
              una := ackno;
              highest := max !highest (ackno - 1);
              Printf.sprintf "a%d:%b" newly (Cc.on_ack cc ~ackno ~newly)
            | n when n < 29 ->
              Cc.on_dup_ack cc;
              "d"
            | n when n < 32 ->
              Cc.on_loss cc Cc.Fast_retransmit ~highest_sent:!highest;
              "f"
            | n when n < 34 ->
              Cc.on_loss cc Cc.Timeout ~highest_sent:!highest;
              "t"
            | n when n < 39 ->
              let rtt = Engine.Rng.uniform rng ~lo:0.02 ~hi:1.5 in
              Cc.on_rtt_sample cc ~rtt;
              Printf.sprintf "r%h" rtt
            | _ ->
              Cc.reset cc;
              "z"
          in
          Printf.bprintf buf "%s %h %h %d %b %b;" step (Cc.cwnd cc)
            (Cc.ssthresh cc) (Cc.window cc) (Cc.in_slow_start cc)
            (Cc.in_recovery cc)
        done
      done)
    [ 2; 9; 1000 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let zoo_pins =
  [
    ("tahoe", "8a5e9c82a290fd69c73b1efa332906d4");
    ("tahoe-unmodified", "d632de4aa0972b8da55b309d2ed3113b");
    ("reno", "4f33b230900b841af5a43bc1650af8b6");
    ("reno-unmodified", "6d44c67f1806ab6dfe8df792c57b780a");
    ("newreno", "2e085d4947d715d1bdee5b9640703ef2");
    ("aimd", "ddf2291efd4233595a9cf90cf68e74d2");
    ("compound", "adb9ba82a05bdb709552b8ab65b19ad1");
    ("oracle", "a2563669a6357713a2a21c3244739a58");
    ("fixed", "ee6e80ffd62b14ed2c36f2bd74b10f0b");
  ]

let zoo_pin_cases =
  Alcotest.test_case "per-entry pins: one per table entry" `Quick (fun () ->
      Alcotest.(check (list string)) "pinned names" Cc_zoo.names
        (List.map fst zoo_pins))
  :: List.map
       (fun (name, md5) ->
         Alcotest.test_case ("per-entry pin: " ^ name) `Quick (fun () ->
             Alcotest.(check string) "trajectory digest" md5 (pin_digest name)))
       zoo_pins

let suite =
  ( "cc differential",
    frozen_vector_cases @ zoo_pin_cases
    @ [
        Alcotest.test_case "Reno fast-recovery pins via Cc" `Quick
          test_reno_pins_via_cc;
        QCheck_alcotest.to_alcotest prop_aimd_converges;
      ] )
