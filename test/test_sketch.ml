(* lib/obs Sketch: streaming log-bucket quantile sketch.

   The statement that matters is the accuracy contract: for positive
   samples, every reported quantile is within the advertised relative
   error [alpha] of the exact sample quantile — the sorted sample at
   0-based index [floor (q * (n - 1))], the same rank convention the
   sketch uses — on uniform, heavy-tailed and adversarial-spike streams
   alike, while q = 0 / q = 1 are exactly the observed min / max.
   Everything else (validation, underflow bucket, merge determinism) is
   covered by unit tests. *)

let exact_quantile sorted q =
  let n = Array.length sorted in
  if q <= 0. then sorted.(0)
  else if q >= 1. then sorted.(n - 1)
  else sorted.(int_of_float (q *. float_of_int (n - 1)))

let probe_qs = [ 0.; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. ]

(* ---------------- units ---------------- *)

let test_create_validation () =
  Alcotest.check_raises "max_buckets < 2 rejected"
    (Invalid_argument "Sketch.create: max_buckets < 2") (fun () ->
      ignore (Obs.Sketch.create ~max_buckets:1 () : Obs.Sketch.t))

let test_empty_and_basics () =
  let sk = Obs.Sketch.create () in
  Alcotest.(check bool) "empty" true (Obs.Sketch.is_empty sk);
  Alcotest.(check (option (float 0.))) "quantile of empty" None
    (Obs.Sketch.quantile sk 0.5);
  Alcotest.(check (option (float 0.))) "min of empty" None (Obs.Sketch.min sk);
  Alcotest.check_raises "nan sample rejected"
    (Invalid_argument "Sketch.add: nan") (fun () ->
      Obs.Sketch.add sk Float.nan);
  Alcotest.check_raises "q outside [0,1] rejected"
    (Invalid_argument "Sketch.quantile: q outside [0, 1]") (fun () ->
      ignore (Obs.Sketch.quantile sk 1.5 : float option));
  List.iter (Obs.Sketch.add sk) [ 3.; 1.; 2. ];
  Alcotest.(check int) "count" 3 (Obs.Sketch.count sk);
  Alcotest.(check (float 1e-12)) "sum" 6. (Obs.Sketch.sum sk);
  Alcotest.(check (option (float 1e-12))) "mean" (Some 2.)
    (Obs.Sketch.mean sk);
  Alcotest.(check (option (float 0.))) "q=0 is the exact min" (Some 1.)
    (Obs.Sketch.quantile sk 0.);
  Alcotest.(check (option (float 0.))) "q=1 is the exact max" (Some 3.)
    (Obs.Sketch.quantile sk 1.)

let test_underflow_bucket () =
  (* Zero and negatives cannot ride the log mapping: they land in the
     underflow bucket and are estimated by the observed minimum. *)
  let sk = Obs.Sketch.create () in
  List.iter (Obs.Sketch.add sk) [ 0.; -5.; 3.; 4. ];
  Alcotest.(check (option (float 0.))) "min is exact" (Some (-5.))
    (Obs.Sketch.min sk);
  Alcotest.(check (option (float 0.))) "low quantile = observed min"
    (Some (-5.))
    (Obs.Sketch.quantile sk 0.25);
  Alcotest.(check (option (float 0.))) "max is exact" (Some 4.)
    (Obs.Sketch.quantile sk 1.)

let test_merge_matches_single_sketch () =
  (* Count-addition merging: merging two sketches gives bit-identical
     estimates to one sketch fed everything — the property the
     cross-flow RTT aggregate in Flowstats relies on. *)
  let a = [ 0.01; 0.5; 0.5; 12.; 300. ]
  and b = [ 0.2; 7.; 7.; 7.; 1e4; -1. ] in
  let sa = Obs.Sketch.create () and sb = Obs.Sketch.create () in
  let whole = Obs.Sketch.create () in
  List.iter (Obs.Sketch.add sa) a;
  List.iter (Obs.Sketch.add sb) b;
  List.iter (Obs.Sketch.add whole) (a @ b);
  Obs.Sketch.merge ~into:sa sb;
  Alcotest.(check int) "merged count" (Obs.Sketch.count whole)
    (Obs.Sketch.count sa);
  List.iter
    (fun q ->
      match (Obs.Sketch.quantile whole q, Obs.Sketch.quantile sa q) with
      | Some w, Some m ->
        Alcotest.(check bool)
          (Printf.sprintf "q=%g bit-identical" q)
          true
          (Int64.bits_of_float w = Int64.bits_of_float m)
      | _ -> Alcotest.fail "quantile missing after merge")
    probe_qs

let test_collapse_reported () =
  (* A tiny bucket cap forces low-tail collapsing; the sketch must say
     so, and the top quantiles must stay inside the bound. *)
  let sk = Obs.Sketch.create ~max_buckets:4 () in
  let samples = List.init 64 (fun i -> 1.5 ** float_of_int i) in
  List.iter (Obs.Sketch.add sk) samples;
  Alcotest.(check bool) "collapse reported" true (Obs.Sketch.collapsed sk);
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  let exact = exact_quantile sorted 0.99 in
  (match Obs.Sketch.quantile sk 0.99 with
   | Some est ->
     Alcotest.(check bool) "p99 keeps the bound under collapse" true
       (Float.abs (est -. exact)
        <= ((Obs.Sketch.alpha *. 1.001) +. 1e-12) *. exact)
   | None -> Alcotest.fail "p99 missing")

(* ---------------- the error-bound property ---------------- *)

let check_bound samples =
  let alpha = Obs.Sketch.alpha in
  let sk = Obs.Sketch.create () in
  List.iter (Obs.Sketch.add sk) samples;
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  (* 1.001 slack absorbs float rounding in the log/exp mapping. *)
  let tol = (alpha *. 1.001) +. 1e-12 in
  List.for_all
    (fun q ->
      match Obs.Sketch.quantile sk q with
      | None -> false
      | Some est ->
        if q = 0. then est = sorted.(0)
        else if q = 1. then est = sorted.(n - 1)
        else
          let exact = exact_quantile sorted q in
          Float.abs (est -. exact) <= tol *. Float.abs exact)
    probe_qs

let print_samples l =
  "[" ^ String.concat "; " (List.map (Printf.sprintf "%h") l) ^ "]"

let stream_arb gen = QCheck.make ~print:print_samples gen

let prop_uniform =
  QCheck.Test.make
    ~name:"sketch keeps the alpha bound on uniform streams" ~count:200
    (stream_arb QCheck.Gen.(list_size (int_range 1 400) (float_range 0.1 100.)))
    check_bound

let prop_heavy_tail =
  (* u^-2 of uniform u: a Pareto-style tail spanning 1 .. 10^6. *)
  QCheck.Test.make
    ~name:"sketch keeps the alpha bound on heavy-tailed streams" ~count:200
    (stream_arb
       QCheck.Gen.(
         list_size (int_range 1 400)
           (map (fun u -> u ** -2.) (float_range 1e-3 1.))))
    check_bound

let prop_adversarial_spike =
  (* A tight cluster punctured by 9-decade spikes: the worst case for a
     fixed-resolution histogram, easy for a log-bucket sketch. *)
  QCheck.Test.make
    ~name:"sketch keeps the alpha bound on adversarial-spike streams"
    ~count:200
    (stream_arb
       QCheck.Gen.(
         list_size (int_range 1 400)
           (oneof [ float_range 0.5 1.5; float_range 1e6 1e9 ])))
    check_bound

let suite =
  ( "sketch",
    [
      Alcotest.test_case "create: parameter validation" `Quick
        test_create_validation;
      Alcotest.test_case "empty sketch, exact min/max, nan rejection" `Quick
        test_empty_and_basics;
      Alcotest.test_case "underflow bucket holds zero and negatives" `Quick
        test_underflow_bucket;
      Alcotest.test_case "merge is bit-identical to a single sketch" `Quick
        test_merge_matches_single_sketch;
      Alcotest.test_case "bucket-cap collapse is reported, p99 survives"
        `Quick test_collapse_reported;
      QCheck_alcotest.to_alcotest prop_uniform;
      QCheck_alcotest.to_alcotest prop_heavy_tail;
      QCheck_alcotest.to_alcotest prop_adversarial_spike;
    ] )
