(* The synchronization-mode phase diagram (paper 4.3.3).

   For the zero-size-ACK fixed-window system the paper conjectures a sharp
   boundary: windows (w1, w2) sharing a bottleneck of pipe size P are
   out-of-phase with exactly one line full when |w1 - w2| > 2P, and
   in-phase with neither line full when |w1 - w2| < 2P.

   This example runs the Sweep.Grids.phase_diagram grid — the 49 cells are
   independent simulations, so they fan out across the worker pool — and
   prints the measured phase map; the conjectured boundary runs along the
   diagonals w1 = w2 +/- 2P.

   Run with:  dune exec examples/phase_diagram.exe -- --jobs 4   (~10 s) *)

let jobs_of_argv () =
  let rec go = function
    | "--jobs" :: n :: _ -> int_of_string n
    | _ :: rest -> go rest
    | [] -> Sweep_pool.default_jobs ()
  in
  go (Array.to_list Sys.argv)

let observe (s : Sweep.Summary.t) =
  Analysis.Conjecture.observe ~util1:s.util_fwd ~util2:s.util_bwd

let () =
  let windows = Sweep.Grids.phase_diagram_windows in
  let pipe =
    Engine.Units.pipe_size
      ~rate_bps:Net.Topology.bottleneck_bw
      ~delay:Sweep.Grids.phase_diagram_tau ~packet_bytes:500
  in
  let points = Sweep.Grids.phase_diagram.points () in
  let summaries = Sweep.Driver.run ~jobs:(jobs_of_argv ()) points in
  (* The grid is row-major over w1 then w2; consume it cell by cell. *)
  let cells = ref summaries in
  let next () =
    match !cells with
    | [] -> failwith "phase_diagram: grid shorter than expected"
    | s :: rest ->
      cells := rest;
      s
  in
  Printf.printf
    "Measured phase map, zero-size ACKs, P = %.1f packets.\n\
     O = out-of-phase (one line full), I = in-phase (neither full),\n\
     B = both full.  Conjectured boundary: |w1 - w2| = 2P = %.0f.\n\n"
    pipe (2. *. pipe);
  Printf.printf "          w2 ->";
  List.iter (fun w2 -> Printf.printf "%4d" w2) windows;
  print_newline ();
  List.iter
    (fun w1 ->
      Printf.printf "  w1 = %2d      " w1;
      List.iter
        (fun w2 ->
          let observed = observe (next ()) in
          let mark =
            match observed with
            | Analysis.Conjecture.Out_of_phase_one_full -> 'O'
            | Analysis.Conjecture.In_phase_neither_full -> 'I'
            | Analysis.Conjecture.Boundary -> 'B'
          in
          let predicted = Analysis.Conjecture.predict ~w1 ~w2 ~pipe in
          let agree = Analysis.Conjecture.verdict predicted ~observed in
          Printf.printf "  %c%c" mark (if agree then ' ' else '!'))
        windows;
      print_newline ())
    windows;
  print_newline ();
  print_endline
    "(a '!' marks disagreement with the conjecture; the paper expects the";
  print_endline
    " criterion to be exact for zero-size ACKs away from the boundary)"
