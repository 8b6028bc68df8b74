(* Experiments golden: the paper-vs-measured report of all 18
   experiments at the paper horizon, one JSON outcome per line, in
   registry order.  The acceptance bands in test_experiments only say
   pass or fail; this pins every measured value, so no change can move
   a reported number unnoticed.

   Diffed against the committed [experiments.json] by the [runtest]
   alias; accept an intentional change with

     dune promote test/golden/experiments.json *)

let () =
  List.iter
    (fun outcome -> print_endline (Core.Report.to_json outcome))
    (Core.Experiments.all ())
