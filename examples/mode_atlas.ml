(* An atlas of synchronization modes (paper 4.3.3, closing paragraphs).

   "Upon varying the buffer size or the pipe size P ... one usually sees
   one of the two cases described above.  However, we have also observed
   behavior which does not fit neatly into our in-phase/out-of-phase
   taxonomy."

   This example runs the Sweep.Grids.mode_atlas grid — buffer size x
   propagation delay for the two-way 1+1 configuration, fanned out across
   the worker pool — and classifies each cell by its queue phase and
   per-epoch loss pattern, mapping where each mode lives.

   Legend:
     O-  out-of-phase, single-loser epochs (the Figure 4 mode)
     I=  in-phase, both connections lose each epoch (the Figure 6 mode)
     O=, I-, ??  the paper's "less common" mixtures

   Run with:  dune exec examples/mode_atlas.exe -- --jobs 4   (~10 s) *)

let jobs_of_argv () =
  let rec go = function
    | "--jobs" :: n :: _ -> int_of_string n
    | _ :: rest -> go rest
    | [] -> Sweep_pool.default_jobs ()
  in
  go (Array.to_list Sys.argv)

let classify (s : Sweep.Summary.t) =
  let phase_mark =
    match s.phase with
    | "out-of-phase" -> 'O'
    | "in-phase" -> 'I'
    | _ -> '?'
  in
  let single = Option.value ~default:0. s.single_loser in
  let loss_mark =
    if s.epoch_count = 0 then '.'
    else if single >= 0.8 then '-'  (* one connection takes the losses *)
    else if single <= 0.2 then '='  (* losses shared *)
    else '~'  (* mixed: the paper's "less common" patterns *)
  in
  let util = 100. *. Float.max s.util_fwd s.util_bwd in
  (phase_mark, loss_mark, util)

let () =
  let taus = Sweep.Grids.mode_atlas_taus in
  let buffers = Sweep.Grids.mode_atlas_buffers in
  let points = Sweep.Grids.mode_atlas.points () in
  let summaries = Sweep.Driver.run ~jobs:(jobs_of_argv ()) points in
  (* Row-major over buffer then tau, matching the printed rows. *)
  let cells = ref summaries in
  let next () =
    match !cells with
    | [] -> failwith "mode_atlas: grid shorter than expected"
    | s :: rest ->
      cells := rest;
      s
  in
  print_endline "Synchronization-mode atlas: two-way 1+1 traffic.";
  print_endline
    "cell = <phase><losses> util%   (O out-of-phase, I in-phase; - single\n\
     loser, = shared losses, ~ mixed; the paper: out-of-phase for small\n\
     pipe / big buffers, in-phase for large pipe / small buffers)";
  print_newline ();
  Printf.printf "%14s" "buffer \\ tau";
  List.iter (fun tau -> Printf.printf "%12s" (Printf.sprintf "%gs" tau)) taus;
  print_newline ();
  List.iter
    (fun buffer ->
      Printf.printf "%14d" buffer;
      List.iter
        (fun _tau ->
          let phase, losses, util = classify (next ()) in
          Printf.printf "%12s"
            (Printf.sprintf "%c%c %.0f%%" phase losses util))
        taus;
      print_newline ())
    buffers;
  print_newline ();
  print_endline
    "Pipe sizes: tau=0.01s -> P=0.125 pkts ... tau=1s -> P=12.5 pkts."
