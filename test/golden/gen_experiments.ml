(* Experiments golden: the full paper-vs-measured report of the three
   experiments that configure classic congestion-control variants
   (TAB-ABL, TAB-RENO, TAB-COLLAPSE) at Quick speed, one JSON outcome
   per line.  The acceptance bands in test_experiments only say pass or
   fail; this pins every measured value, so a change to how these
   experiments name their variants cannot move a number unnoticed.

   Diffed against the committed [experiments.json] by the [runtest]
   alias; accept an intentional change with

     dune promote test/golden/experiments.json *)

let () =
  List.iter
    (fun name ->
      match Core.Experiments.find name with
      | Some run ->
        print_endline (Core.Report.to_json (run ~speed:Core.Experiments.Quick ()))
      | None -> failwith ("unknown experiment " ^ name))
    [ "ablation"; "reno"; "collapse" ]
