(* Validated CLI numeric parsing (lib/core/args.ml): [float_of_string]
   accepts "nan", "inf" and negatives where netsim flags mean durations,
   rates or probabilities, and a bare int flag takes any sign.  Every
   numeric flag in bin/netsim.ml routes through [Args.parse_float] or
   [Args.parse_int]; this suite pins the check semantics and walks the
   flag table so a new flag added without validation shows up as a
   missing row here. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let admits = Core.Args.admits

let test_admits_positive () =
  Alcotest.(check bool) "1e-9" true (admits Core.Args.Positive 1e-9);
  Alcotest.(check bool) "600" true (admits Core.Args.Positive 600.);
  Alcotest.(check bool) "zero" false (admits Core.Args.Positive 0.);
  Alcotest.(check bool) "negative" false (admits Core.Args.Positive (-1.));
  Alcotest.(check bool) "nan" false (admits Core.Args.Positive Float.nan);
  Alcotest.(check bool) "inf" false (admits Core.Args.Positive Float.infinity);
  Alcotest.(check bool) "-inf" false
    (admits Core.Args.Positive Float.neg_infinity)

let test_admits_non_negative () =
  Alcotest.(check bool) "zero" true (admits Core.Args.Non_negative 0.);
  Alcotest.(check bool) "positive" true (admits Core.Args.Non_negative 0.5);
  Alcotest.(check bool) "negative" false (admits Core.Args.Non_negative (-0.5));
  Alcotest.(check bool) "nan" false (admits Core.Args.Non_negative Float.nan);
  Alcotest.(check bool) "inf" false
    (admits Core.Args.Non_negative Float.infinity)

let test_admits_probability () =
  Alcotest.(check bool) "zero" true (admits Core.Args.Probability 0.);
  Alcotest.(check bool) "one" true (admits Core.Args.Probability 1.);
  Alcotest.(check bool) "half" true (admits Core.Args.Probability 0.5);
  Alcotest.(check bool) "above one" false (admits Core.Args.Probability 1.5);
  Alcotest.(check bool) "negative" false (admits Core.Args.Probability (-0.1));
  Alcotest.(check bool) "nan" false (admits Core.Args.Probability Float.nan);
  Alcotest.(check bool) "inf" false
    (admits Core.Args.Probability Float.infinity)

let test_error_messages () =
  (match Core.Args.parse_float ~what:"--loss" Core.Args.Probability "nan" with
   | Ok _ -> Alcotest.fail "nan accepted"
   | Error msg ->
     Alcotest.(check bool) "names the flag" true (contains msg "--loss");
     Alcotest.(check bool) "says nan" true (contains msg "nan");
     Alcotest.(check bool) "states the requirement" true
       (contains msg "probability in [0,1]"));
  (match Core.Args.parse_float ~what:"--duration" Core.Args.Positive "-3" with
   | Ok _ -> Alcotest.fail "negative duration accepted"
   | Error msg ->
     Alcotest.(check bool) "names the flag" true (contains msg "--duration");
     Alcotest.(check bool) "shows the value" true (contains msg "-3"));
  (match Core.Args.parse_float ~what:"--tau" Core.Args.Positive "abc" with
   | Ok _ -> Alcotest.fail "garbage accepted"
   | Error msg ->
     Alcotest.(check bool) "malformed input names the flag" true
       (contains msg "--tau"));
  (match Core.Args.parse_float ~what:"--warmup" Core.Args.Non_negative " 2.5 " with
   | Ok v -> Alcotest.(check (float 0.)) "whitespace trimmed" 2.5 v
   | Error msg -> Alcotest.failf "trimmed input rejected: %s" msg);
  (match Core.Args.parse_int ~what:"--width" ~min:8 "0" with
   | Ok _ -> Alcotest.fail "width 0 accepted"
   | Error msg ->
     Alcotest.(check bool) "names the flag" true (contains msg "--width");
     Alcotest.(check bool) "states the bound" true (contains msg ">= 8");
     Alcotest.(check bool) "shows the value" true (contains msg "got 0"));
  match Core.Args.parse_int ~what:"--jobs" ~min:1 " 4 " with
  | Ok v -> Alcotest.(check int) "whitespace trimmed" 4 v
  | Error msg -> Alcotest.failf "trimmed input rejected: %s" msg

(* A float flag's check, or an int flag's minimum. *)
type rule = Float of Core.Args.check | Int of int

(* One row per numeric flag in bin/netsim.ml, with the rule that flag
   declares.  Every row must reject the classic float_of_string and
   int footguns and accept a representative sane value. *)
let flag_table =
  [
    ("--duration", Float Core.Args.Positive, "600");
    ("--warmup", Float Core.Args.Non_negative, "200");
    ("--tau", Float Core.Args.Positive, "0.01");
    ("--skew", Float Core.Args.Non_negative, "0");
    ("--pacing", Float Core.Args.Positive, "0.05");
    ("--metrics-dt", Float Core.Args.Positive, "1");
    ("--max-wall", Float Core.Args.Positive, "30");
    ("--loss", Float Core.Args.Probability, "0.01");
    ("--dup", Float Core.Args.Probability, "0.001");
    ("--jitter", Float Core.Args.Non_negative, "0.002");
    ("--burst-loss", Float Core.Args.Probability, "0.3");
    ("--outage", Float Core.Args.Non_negative, "5");
    ("--jobs", Int 1, "4");
    ("--max-events", Int 1, "100000");
    ("--flow-size", Int 1, "50");
    ("--fwd", Int 0, "1");
    ("--rev", Int 0, "0");
    ("--buffer", Int 0, "20");
    ("--ack-size", Int 0, "50");
    ("--flight-recorder", Int 0, "64");
    ("--width", Int 8, "96");
    ("--fixed", Int 1, "30");
  ]

let test_per_flag_rejection () =
  List.iter
    (fun (flag, rule, good) ->
      let parse s =
        match rule with
        | Float c -> Result.map ignore (Core.Args.parse_float ~what:flag c s)
        | Int min -> Result.map ignore (Core.Args.parse_int ~what:flag ~min s)
      in
      let bad =
        match rule with
        | Float _ -> [ "nan"; "inf"; "-inf"; "-1"; "x" ]
        | Int min -> [ "nan"; "inf"; "x"; "1.5"; string_of_int (min - 1) ]
      in
      (match parse good with
       | Ok () -> ()
       | Error msg -> Alcotest.failf "%s rejects its own default: %s" flag msg);
      List.iter
        (fun bad ->
          match parse bad with
          | Ok () -> Alcotest.failf "%s accepted %s" flag bad
          | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s error names the flag for %s" flag bad)
              true (contains msg flag))
        bad)
    flag_table

(* End to end: an out-of-range int flag is CLI misuse (exit 2), not an
   uncaught exception (exit 125) or a silently different run; so are a
   duration that leaves no measurement window after the warm-up, and
   series asked for with nowhere to write them. *)
let test_cli_int_flags_exit_2 () =
  List.iter
    (fun args ->
      let code, _ = Test_cc_conformance.run_netsim args in
      Alcotest.(check int) (String.concat " " args ^ " exits 2") 2 code)
    [
      [ "run"; "--fwd=-1" ];
      [ "run"; "--ack-size=-50" ];
      [ "run"; "--flow-size=0" ];
      [ "run"; "--buffer=-3" ];
      [ "run"; "--flight-recorder=-4" ];
      [ "run"; "--max-events"; "0" ];
      [ "run"; "--fixed"; "0,5" ];
      [ "run"; "--fixed"; "5" ];
      [ "run"; "--rev"; "1"; "--duration"; "10"; "--warmup"; "10" ];
      [ "run"; "--rev"; "1"; "--duration"; "10"; "--warmup"; "20" ];
      [ "run"; "--rev"; "1"; "--duration"; "20"; "--warmup"; "5";
        "--metrics-dt"; "1" ];
      [ "run"; "--rev"; "1"; "--duration"; "20"; "--warmup"; "5";
        "--metrics-dt"; "1"; "--json" ];
      [ "plot"; "fig8"; "--width"; "0" ];
      [ "sweep"; "smoke"; "--jobs"; "0" ];
      [ "sweep"; "smoke"; "--jobs=-3" ];
    ]

(* So is a path netsim cannot read or write, and a directory given where
   a trace is read.  Outputs are opened before the first simulation, so
   none of these runs anything. *)
let test_cli_bad_paths_exit_2 () =
  let trace = Filename.temp_file "netsim-args" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  let run = [ "run"; "--rev"; "1"; "--duration"; "20"; "--warmup"; "5" ] in
  let code, _ =
    Test_cc_conformance.run_netsim (run @ [ "--trace-out"; trace ])
  in
  Alcotest.(check int) "trace written" 0 code;
  let bad = "/nonexistent/x" and dir = Filename.get_temp_dir_name () in
  List.iter
    (fun args ->
      let code, _ = Test_cc_conformance.run_netsim args in
      Alcotest.(check int) (String.concat " " args ^ " exits 2") 2 code)
    [
      [ "tracecheck"; bad ];
      [ "tracecheck"; dir ];
      [ "trace"; "stats"; dir ];
      [ "trace"; "export"; dir ];
      [ "trace"; "export"; trace; "-o"; bad ];
      run @ [ "--trace-out"; bad ];
      run @ [ "--metrics-out"; bad ];
      run @ [ "--flowstats-out"; bad ];
      run @ [ "--csv"; bad ];
      [ "sweep"; "smoke"; "--out"; bad ];
      [ "dump"; "--dir"; bad ];
    ]

(* A fixed window never backs off, so at a finite buffer it must detect
   loss or its first drop wedges the run.  `run --fixed` follows the
   same rule as the fig8 grid's fixed-window points and reports the
   grid point's numbers (the phase is not compared: the grid samples
   at 0.05 s). *)
let test_cli_fixed_finite_buffer () =
  let parse text =
    match Obs.Json.parse (String.trim text) with
    | Ok json -> json
    | Error msg -> Alcotest.failf "not JSON: %s" msg
  in
  let numbers json key =
    match Obs.Json.member key json with
    | Some (Obs.Json.List l) -> List.filter_map Obs.Json.to_float l
    | Some v -> Option.to_list (Obs.Json.to_float v)
    | None -> []
  in
  let code, out =
    Test_cc_conformance.run_netsim
      [ "run"; "--fixed"; "30,25"; "--buffer"; "24"; "--duration"; "400";
        "--warmup"; "150"; "--json" ]
  in
  Alcotest.(check int) "exit" 0 code;
  let cli = parse out in
  let grid =
    List.find
      (fun (p : Sweep.Driver.point) -> p.id = "fixed-t0.01-b24")
      (Sweep.Grids.fig8.points ())
    |> Sweep.Driver.run_point |> Sweep.Summary.to_json |> parse
  in
  List.iter
    (fun (key, pinned) ->
      let got = numbers cli key in
      Alcotest.(check (list (float 0.))) (key ^ " = the grid point's")
        (numbers grid key) got;
      Alcotest.(check (list (float 0.))) (key ^ " pinned") pinned got)
    [
      ("util_fwd", [ 0.8224896 ]);
      ("util_bwd", [ 0.44476248 ]);
      ("drops_total", [ 3316. ]);
      ("delivered", [ 1747.; 844. ]);
    ]

(* At tau = 0.01 and B = 20 the drops never pause for the epoch gap, so
   the one epoch spans the whole window: `run` names that condition
   instead of printing its drop count.  Epochs that do pause still
   print their count. *)
let test_cli_degenerate_epochs () =
  let epoch_line args =
    let code, out = Test_cc_conformance.run_netsim ("run" :: args) in
    Alcotest.(check int) (String.concat " " args ^ " exits 0") 0 code;
    match
      List.find_opt
        (fun l -> contains l "congestion epochs")
        (String.split_on_char '\n' out)
    with
    | Some l -> l
    | None -> Alcotest.failf "no epoch line in: %s" out
  in
  Alcotest.(check string) "one edge-to-edge epoch"
    "congestion epochs: none distinguishable (drops never pause for 5 s)"
    (epoch_line [ "--fwd"; "5"; "--rev"; "5"; "--duration"; "600" ]);
  Alcotest.(check string) "pausing drops keep their count"
    "congestion epochs: 13 (mean 3.00 drops each)"
    (epoch_line [ "--fwd"; "3"; "--tau"; "1"; "--duration"; "600" ])

let suite =
  ( "args",
    [
      Alcotest.test_case "positive check" `Quick test_admits_positive;
      Alcotest.test_case "non-negative check" `Quick test_admits_non_negative;
      Alcotest.test_case "probability check" `Quick test_admits_probability;
      Alcotest.test_case "errors name flag, value, requirement" `Quick
        test_error_messages;
      Alcotest.test_case "every numeric flag rejects nan/inf/negative" `Quick
        test_per_flag_rejection;
      Alcotest.test_case "netsim int flags out of range exit 2" `Quick
        test_cli_int_flags_exit_2;
      Alcotest.test_case "netsim bad file paths exit 2" `Quick
        test_cli_bad_paths_exit_2;
      Alcotest.test_case "run names a degenerate epoch count" `Quick
        test_cli_degenerate_epochs;
      Alcotest.test_case "run --fixed at a finite buffer detects loss" `Quick
        test_cli_fixed_finite_buffer;
    ] )
