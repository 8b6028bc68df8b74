open Analysis

let feq = Alcotest.(check (float 1e-9))

(* Population variance, for the properties' non-degeneracy assumptions. *)
let variance a =
  let m = Stats.mean a in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. a
  /. float_of_int (Array.length a)

let test_mean () =
  feq "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  feq "constant" 7. (Stats.mean [| 7.; 7.; 7. |])

let test_median () =
  feq "odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  feq "even" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |]);
  feq "single" 9. (Stats.median [| 9. |])

let test_pearson () =
  let x = [| 1.; 2.; 3.; 4.; 5. |] in
  let y = Array.map (fun v -> (2. *. v) +. 1.) x in
  feq "perfect positive" 1. (Stats.pearson x y);
  let z = Array.map (fun v -> -.v) x in
  feq "perfect negative" (-1.) (Stats.pearson x z);
  feq "constant input" 0. (Stats.pearson x [| 3.; 3.; 3.; 3.; 3. |])

let test_empty_rejected () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "mean" true (raises (fun () -> Stats.mean [||]));
  Alcotest.(check bool) "median" true (raises (fun () -> Stats.median [||]));
  Alcotest.(check bool) "pearson length" true
    (raises (fun () -> Stats.pearson [| 1. |] [| 1.; 2. |]))

let prop_pearson_bounded =
  QCheck.Test.make ~name:"pearson in [-1, 1]" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 2 30)
        (pair (float_bound_inclusive 10.) (float_bound_inclusive 10.)))
    (fun pairs ->
      let xs = Array.of_list (List.map fst pairs) in
      let ys = Array.of_list (List.map snd pairs) in
      let r = Stats.pearson xs ys in
      r >= -1.0000001 && r <= 1.0000001)

(* Pearson correlation is invariant under positive affine maps of either
   argument: r(a*x + b, y) = r(x, y) for a > 0. *)
let prop_pearson_affine_invariant =
  QCheck.Test.make ~name:"pearson invariant under positive affine scaling"
    ~count:200
    QCheck.(
      triple
        (list_of_size (Gen.int_range 2 30)
           (pair (float_bound_inclusive 10.) (float_bound_inclusive 10.)))
        (float_range 0.1 50.)
        (float_bound_inclusive 100.))
    (fun (pairs, scale, offset) ->
      let xs = Array.of_list (List.map fst pairs) in
      let ys = Array.of_list (List.map snd pairs) in
      (* Near-constant inputs sit on pearson's degenerate-variance cutoff,
         where scaling can flip the 0 fallback; the identity only holds
         away from it. *)
      QCheck.assume
        (variance xs > 1e-6 && variance ys > 1e-6);
      let xs' = Array.map (fun v -> (scale *. v) +. offset) xs in
      Float.abs (Stats.pearson xs' ys -. Stats.pearson xs ys) < 1e-6)

let prop_median_bounded =
  QCheck.Test.make ~name:"median within [min, max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 100.))
    (fun xs ->
      let a = Array.of_list xs in
      let m = Stats.median a in
      m >= Array.fold_left Float.min a.(0) a
      && m <= Array.fold_left Float.max a.(0) a)

let suite =
  ( "stats",
    [
      Alcotest.test_case "mean" `Quick test_mean;
      Alcotest.test_case "median" `Quick test_median;
      Alcotest.test_case "pearson" `Quick test_pearson;
      Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
      QCheck_alcotest.to_alcotest prop_pearson_bounded;
      QCheck_alcotest.to_alcotest prop_pearson_affine_invariant;
      QCheck_alcotest.to_alcotest prop_median_bounded;
    ] )
