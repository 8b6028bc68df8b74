(* Cross-variant conformance battery: one parameterized suite run over
   EVERY entry in the Cc_zoo table, so a new zoo variant inherits the
   whole battery just by being listed.

   The invariants are the ones the sender and the validate harness rely
   on: the usable window stays in [1, maxwnd], ssthresh never drops
   below 2, a loss never leaves the (settled) window larger than before,
   slow-start exit is monotone under pure ACK growth, and no event
   sequence raises. *)

open Tcp

let all_names = Cc_zoo.names

(* ---------------- random event sequences ---------------- *)

type event = Ack | Dup_ack | Loss_fast | Loss_timeout | Rtt of float | Send

let gen_event =
  QCheck.Gen.(
    frequency
      [
        (6, return Ack);
        (2, return Dup_ack);
        (1, return Loss_fast);
        (1, return Loss_timeout);
        (2, map (fun r -> Rtt r) (float_range 0.01 2.));
        (2, return Send);
      ])

let pp_event = function
  | Ack -> "ack"
  | Dup_ack -> "dup"
  | Loss_fast -> "fast-rexmt"
  | Loss_timeout -> "timeout"
  | Rtt r -> Printf.sprintf "rtt %.3f" r
  | Send -> "send"

let arb_events =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map pp_event l))
    QCheck.Gen.(list_size (int_range 0 80) gen_event)

(* Drive one event the way the sender would: ACKs advance a cumulative
   counter, losses pass the current highest-sent. *)
let apply c ~ackno ~highest event =
  match event with
  | Ack ->
    incr ackno;
    if !ackno > !highest then highest := !ackno;
    ignore (Cc.on_ack c ~ackno:!ackno ~newly:1 : bool)
  | Dup_ack -> Cc.on_dup_ack c
  | Loss_fast -> Cc.on_loss c Cc.Fast_retransmit ~highest_sent:!highest
  | Loss_timeout -> Cc.on_loss c Cc.Timeout ~highest_sent:!highest
  | Rtt rtt -> Cc.on_rtt_sample c ~rtt
  | Send ->
    incr highest;
    Cc.on_send c ~seq:!highest ~retransmit:false

let healthy name c ~maxwnd =
  let w = Cc.window c in
  if w < 1 then QCheck.Test.fail_reportf "%s: window %d < 1" name w;
  if w > maxwnd then
    QCheck.Test.fail_reportf "%s: window %d > maxwnd %d" name w maxwnd;
  if Cc.ssthresh c < 2. then
    QCheck.Test.fail_reportf "%s: ssthresh %g < 2" name (Cc.ssthresh c);
  if Float.is_nan (Cc.cwnd c) then
    QCheck.Test.fail_reportf "%s: cwnd is NaN" name;
  true

(* A controller still in recovery after a loss settles once an ACK
   covers everything sent (recovery completes); only then is the
   window comparable to its pre-loss value. *)
let settle c ~ackno ~highest =
  let guard = ref 0 in
  while Cc.in_recovery c && !guard < 10 do
    incr guard;
    ackno := !highest + 1;
    highest := max !highest !ackno;
    ignore (Cc.on_ack c ~ackno:!ackno ~newly:1 : bool)
  done

(* ---------------- per-entry tests ---------------- *)

let test_instantiates name () =
  List.iter
    (fun maxwnd ->
      let c = Cc_zoo.make (Cc.spec name) ~maxwnd in
      Alcotest.(check string) "table name round-trips" name (Cc.name c);
      Alcotest.(check int) "maxwnd recorded" maxwnd (Cc.maxwnd c);
      ignore (healthy name c ~maxwnd : bool))
    [ 2; 8; 1000 ]

let test_rejects_unknown_param name () =
  Alcotest.check_raises "unknown parameter key rejected"
    (Invalid_argument
       (Printf.sprintf "%s: unknown parameter %S (allowed: %s)" name
          "no-such-param"
          (match name with
           | "aimd" -> "a, b"
           | "compound" -> "gamma, dalpha, zeta"
           | "oracle" -> "rate, w0"
           | "fixed" -> "w"
           | _ -> "none")))
    (fun () ->
      ignore
        (Cc_zoo.make
           (Cc.spec ~params:[ ("no-such-param", 1.) ] name)
           ~maxwnd:100
          : Cc.t))

let prop_window_bounds name =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: bounds hold under random events" name)
    ~count:100 arb_events
    (fun events ->
      List.for_all
        (fun maxwnd ->
          let c = Cc_zoo.make (Cc.spec name) ~maxwnd in
          let ackno = ref 0 and highest = ref 0 in
          List.for_all
            (fun e ->
              apply c ~ackno ~highest e;
              healthy name c ~maxwnd)
            events)
        [ 2; 7; 1000 ])

let prop_timeout_never_grows name =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: timeout never increases the window" name)
    ~count:100 arb_events
    (fun events ->
      let maxwnd = 50 in
      let c = Cc_zoo.make (Cc.spec name) ~maxwnd in
      let ackno = ref 0 and highest = ref 0 in
      List.iter (apply c ~ackno ~highest) events;
      let before = Cc.window c in
      Cc.on_loss c Cc.Timeout ~highest_sent:!highest;
      let after = Cc.window c in
      if after > before then
        QCheck.Test.fail_reportf "%s: window %d -> %d across a timeout" name
          before after;
      true)

let prop_loss_settles_no_higher name =
  (* Fast retransmit may transiently inflate (Reno's +3), but once
     recovery completes the window must not exceed its pre-loss value —
     modulo the BSD floor: ssthresh is clamped up to 2, so a window of 1
     may legitimately settle at 2. *)
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: fast-retransmit loss settles no higher" name)
    ~count:100 arb_events
    (fun events ->
      let maxwnd = 50 in
      let c = Cc_zoo.make (Cc.spec name) ~maxwnd in
      let ackno = ref 0 and highest = ref 0 in
      List.iter (apply c ~ackno ~highest) events;
      settle c ~ackno ~highest;
      let before = Cc.window c in
      Cc.on_loss c Cc.Fast_retransmit ~highest_sent:!highest;
      settle c ~ackno ~highest;
      let after = Cc.window c in
      if after > max before 2 then
        QCheck.Test.fail_reportf
          "%s: window %d settled at %d after a fast-retransmit loss" name
          before after;
      true)

let prop_slow_start_exit_monotone name =
  (* Under pure ACK growth, once a controller has left slow start it must
     not re-enter it (re-entry requires a loss).  Controllers that never
     leave (fixed never reaches ssthresh) pass vacuously. *)
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: slow-start exit is monotone" name)
    ~count:50
    QCheck.(int_range 2 60)
    (fun maxwnd ->
      let c = Cc_zoo.make (Cc.spec name) ~maxwnd in
      let ackno = ref 0 and exited = ref false in
      for _ = 1 to 3 * maxwnd do
        incr ackno;
        ignore (Cc.on_ack c ~ackno:!ackno ~newly:1 : bool);
        if not (Cc.in_slow_start c) then exited := true
        else if !exited then
          QCheck.Test.fail_reportf "%s: re-entered slow start on an ACK" name
      done;
      true)

let test_reset_restores name () =
  let c = Cc_zoo.make (Cc.spec name) ~maxwnd:40 in
  let w0 = Cc.window c and cw0 = Cc.cwnd c and ss0 = Cc.ssthresh c in
  let ackno = ref 0 and highest = ref 0 in
  List.iter
    (apply c ~ackno ~highest)
    [ Ack; Ack; Ack; Rtt 0.3; Send; Loss_fast; Dup_ack; Ack; Loss_timeout;
      Ack; Ack ];
  Cc.reset c;
  Alcotest.(check int) "window restored" w0 (Cc.window c);
  Alcotest.(check (float 0.)) "cwnd restored" cw0 (Cc.cwnd c);
  Alcotest.(check (float 0.)) "ssthresh restored" ss0 (Cc.ssthresh c);
  Alcotest.(check bool) "not recovering" false (Cc.in_recovery c)

let battery name =
  [
    Alcotest.test_case
      (Printf.sprintf "%s: instantiates with defaults" name)
      `Quick (test_instantiates name);
    Alcotest.test_case
      (Printf.sprintf "%s: rejects unknown parameters" name)
      `Quick (test_rejects_unknown_param name);
    Alcotest.test_case
      (Printf.sprintf "%s: reset restores the initial state" name)
      `Quick (test_reset_restores name);
    QCheck_alcotest.to_alcotest (prop_window_bounds name);
    QCheck_alcotest.to_alcotest (prop_timeout_never_grows name);
    QCheck_alcotest.to_alcotest (prop_loss_settles_no_higher name);
    QCheck_alcotest.to_alcotest (prop_slow_start_exit_monotone name);
  ]

(* ---------------- zoo table + spec parsing ---------------- *)

let test_registry_populated () =
  Alcotest.(check bool)
    (Printf.sprintf "at least 6 variants (got %d)" (List.length all_names))
    true
    (List.length all_names >= 6);
  List.iter
    (fun required ->
      Alcotest.(check bool) ("listed: " ^ required) true
        (List.mem required all_names))
    [ "tahoe"; "tahoe-unmodified"; "reno"; "newreno"; "aimd"; "compound";
      "oracle"; "fixed" ];
  List.iter
    (fun (id, describe) ->
      Alcotest.(check bool) (id ^ " has a description") true (describe <> ""))
    Cc_zoo.zoo;
  (* adaptive is a subset of the table, minus the non-adaptive pair *)
  List.iter
    (fun name ->
      Alcotest.(check bool) ("adaptive is listed: " ^ name) true
        (List.mem name all_names))
    Cc_zoo.adaptive;
  Alcotest.(check bool) "fixed is not adaptive" false
    (List.mem "fixed" Cc_zoo.adaptive);
  Alcotest.(check bool) "oracle is not adaptive" false
    (List.mem "oracle" Cc_zoo.adaptive)

let test_registry_rejects () =
  Alcotest.(check int) "table ids are distinct" (List.length all_names)
    (List.length (List.sort_uniq compare all_names));
  let raised =
    try
      ignore (Cc_zoo.make (Cc.spec "no-such-cc") ~maxwnd:100 : Cc.t);
      false
    with Invalid_argument msg ->
      (* the error must list the known names for discoverability *)
      let contains needle =
        let n = String.length needle and h = String.length msg in
        let rec go i =
          i + n <= h && (String.sub msg i n = needle || go (i + 1))
        in
        go 0
      in
      contains "no-such-cc" && contains "newreno"
  in
  Alcotest.(check bool) "unknown name raises with the known names listed" true
    raised;
  Alcotest.check_raises "maxwnd < 2"
    (Invalid_argument "Cc.instantiate: maxwnd must be >= 2") (fun () ->
      ignore (Cc_zoo.make (Cc.spec "tahoe") ~maxwnd:1 : Cc.t))

let spec_testable =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Cc.spec_to_string s))
    (fun a b ->
      a.Cc.name = b.Cc.name
      && List.length a.params = List.length b.params
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && Float.equal v1 v2)
           a.params b.params)

let test_spec_parsing () =
  let ok s = Result.get_ok (Cc.spec_of_string s) in
  Alcotest.check spec_testable "bare name" (Cc.spec "newreno") (ok "newreno");
  Alcotest.check spec_testable "params"
    (Cc.spec ~params:[ ("a", 1.); ("b", 0.7) ] "aimd")
    (ok "aimd:a=1,b=0.7");
  Alcotest.check spec_testable "whitespace tolerated"
    (Cc.spec ~params:[ ("w", 30.) ] "fixed")
    (ok " fixed : w = 30 ");
  Alcotest.(check string) "round-trip" "aimd:a=1,b=0.7"
    (Cc.spec_to_string (ok "aimd:a=1,b=0.7"));
  Alcotest.(check string) "no precision lost" "fixed:w=1234567"
    (Cc.spec_to_string (ok "fixed:w=1234567"));
  List.iter
    (fun bad ->
      match Cc.spec_of_string bad with
      | Error _ -> ()
      | Ok s ->
        Alcotest.failf "parsed %S as %s" bad (Cc.spec_to_string s))
    [ ""; ":a=1"; "aimd:a"; "aimd:a=x"; "aimd:=1"; "aimd:a=1,,b=2" ]

(* Names and keys as the parser reads them (trimmed, free of the
   separators); any float value, non-finite included. *)
let prop_spec_round_trip =
  let word chars =
    QCheck.Gen.(string_size ~gen:(oneofl chars) (int_range 1 8))
  in
  let letters = List.init 26 (fun i -> Char.chr (Char.code 'a' + i)) in
  let gen =
    QCheck.Gen.(
      map2
        (fun name params -> Cc.spec ~params name)
        (word ('-' :: letters))
        (list_size (int_range 0 4) (pair (word ('_' :: letters)) float)))
  in
  QCheck.Test.make ~name:"spec_of_string (spec_to_string s) = Ok s"
    ~count:500
    (QCheck.make ~print:Cc.spec_to_string gen)
    (fun s ->
      match Cc.spec_of_string (Cc.spec_to_string s) with
      | Ok s' -> Alcotest.equal spec_testable s s'
      | Error msg -> QCheck.Test.fail_reportf "%s" msg)

let test_duplicate_param_rejected () =
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "aimd: duplicate parameter") (fun () ->
      ignore
        (Cc_zoo.make (Cc.spec ~params:[ ("a", 1.); ("a", 2.) ] "aimd") ~maxwnd:10
          : Cc.t))

let test_bad_param_values () =
  let rejects name params =
    let raised =
      try
        ignore (Cc_zoo.make (Cc.spec ~params name) ~maxwnd:100 : Cc.t);
        false
      with Invalid_argument _ -> true
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s rejects %s" name
         (String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) params)))
      true raised
  in
  rejects "aimd" [ ("a", 0.) ];
  rejects "aimd" [ ("a", infinity) ];
  rejects "aimd" [ ("b", nan) ];
  rejects "aimd" [ ("b", 1.) ];
  rejects "aimd" [ ("b", 0.) ];
  rejects "compound" [ ("gamma", -1.) ];
  rejects "compound" [ ("gamma", infinity) ];
  rejects "oracle" [ ("rate", 0.) ];
  rejects "oracle" [ ("rate", infinity) ];
  rejects "oracle" [ ("w0", 0.) ];
  rejects "oracle" [ ("w0", 1.5) ];
  rejects "fixed" [ ("w", 0.) ];
  rejects "fixed" [ ("w", 30.9) ];
  rejects "fixed" [ ("w", neg_infinity) ];
  (* non-finite values are refused once, before any entry sees them *)
  List.iter
    (fun name ->
      Alcotest.check_raises (name ^ " never sees a NaN")
        (Invalid_argument (name ^ ": parameter x must be finite"))
        (fun () ->
          ignore (Cc_zoo.make (Cc.spec ~params:[ ("x", nan) ] name) ~maxwnd:100
            : Cc.t)))
    all_names

(* ---------------- the CLI surface ---------------- *)

(* [netsim ARGS] -> (exit code, stdout); stderr is discarded. *)
let run_netsim args =
  match Test_sweep.netsim with
  | None -> Alcotest.fail "netsim.exe not built"
  | Some exe ->
    let out = Filename.temp_file "netsim-cc" ".out" in
    Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
    let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    let fd_err = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process exe
        (Array.of_list (exe :: args))
        Unix.stdin fd_out fd_err
    in
    Unix.close fd_out;
    Unix.close fd_err;
    let code =
      match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1
    in
    (code, Test_sweep.read_file out)

let short_run = [ "--fwd"; "1"; "--duration"; "10"; "--warmup"; "1" ]

let test_cli_rejects_bad_params () =
  List.iter
    (fun cc ->
      let code, _ = run_netsim ([ "run"; "--cc"; cc ] @ short_run) in
      Alcotest.(check int) ("--cc " ^ cc ^ " exits 2") 2 code)
    [ "oracle:rate=inf"; "aimd:a=inf"; "compound:gamma=infinity";
      "fixed:w=30.9" ]

let test_cli_reports_spec_losslessly () =
  let code, out =
    run_netsim ([ "run"; "--cc"; "fixed:w=1234567"; "--json" ] @ short_run)
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "summary names the spec as given" true
    (Test_sweep.contains out {|"cc":"fixed:w=1234567"|})

let test_newreno_partial_ack () =
  (* Only NewReno answers true (retransmit the hole) to a partial ACK;
     every other entry always answers false. *)
  let drive name =
    let c = Cc_zoo.make (Cc.spec name) ~maxwnd:100 in
    let ackno = ref 0 in
    for _ = 1 to 9 do
      incr ackno;
      ignore (Cc.on_ack c ~ackno:!ackno ~newly:1 : bool)
    done;
    Cc.on_loss c Cc.Fast_retransmit ~highest_sent:30;
    (* partial: ackno below the recovery point 30 *)
    let partial = Cc.on_ack c ~ackno:15 ~newly:5 in
    let still = Cc.in_recovery c in
    (* full: ackno beyond the recovery point *)
    let full = Cc.on_ack c ~ackno:31 ~newly:16 in
    (partial, still, full, Cc.in_recovery c)
  in
  let partial, still, full, out = drive "newreno" in
  Alcotest.(check (list bool))
    "newreno: partial ACK retransmits and stays in recovery"
    [ true; true; false; false ]
    [ partial; still; full; out ];
  List.iter
    (fun name ->
      let partial, _, full, _ = drive name in
      Alcotest.(check (pair bool bool))
        (name ^ ": never asks for a hole retransmission") (false, false)
        (partial, full))
    (List.filter (fun n -> n <> "newreno") all_names)

let suite =
  ( "cc conformance",
    List.concat_map battery all_names
    @ [
        Alcotest.test_case "registry: populated zoo" `Quick
          test_registry_populated;
        Alcotest.test_case "registry: duplicate/unknown rejected" `Quick
          test_registry_rejects;
        Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
        QCheck_alcotest.to_alcotest prop_spec_round_trip;
        Alcotest.test_case "duplicate parameter rejected" `Quick
          test_duplicate_param_rejected;
        Alcotest.test_case "out-of-range parameters rejected" `Quick
          test_bad_param_values;
        Alcotest.test_case "partial-ACK contract" `Quick
          test_newreno_partial_ack;
        Alcotest.test_case "netsim run rejects bad --cc values" `Quick
          test_cli_rejects_bad_params;
        Alcotest.test_case "netsim run --json reports --cc losslessly" `Quick
          test_cli_reports_spec_losslessly;
      ] )
