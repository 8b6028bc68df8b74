(* "Increasing buffers is a reliable way to increase throughput" — the
   rule of thumb the paper demolishes (3.2, 4.3.1).

   With one-way traffic, link idle time vanishes as the switch buffer
   grows (asymptotically like B^-2).  With two-way traffic in the
   out-of-phase mode, the idle time is set by the EFFECTIVE pipe — which
   grows with the other connection's window, i.e. with the buffer — so
   utilization is stuck near 70% no matter how much memory the switch has.

   Run with:  dune exec examples/buffer_sizing.exe *)

(* TAB-UTIL's rows at paper scale; two-way runs get longer horizons for
   bigger buffers, because the window increase-decrease cycle stretches
   with B. *)
let run ~two_way buffer =
  Core.Runner.run (Core.Experiments.scenario_buffer ~two_way ~buffer)

let one_way buffer = (run ~two_way:false buffer).util_fwd

let two_way buffer =
  let r = run ~two_way:true buffer in
  Float.max r.util_fwd r.util_bwd

let () =
  let buffers = [ 20; 40; 60; 120 ] in
  print_endline "buffer  one-way util   two-way util";
  print_endline "(pkts)  (tau=1s)       (tau=0.01s)";
  List.iter
    (fun b ->
      Printf.printf "%5d   %5.1f%%         %5.1f%%\n" b
        (100. *. one_way b)
        (100. *. two_way b))
    buffers;
  print_newline ();
  print_endline
    "One-way utilization climbs toward 100% with buffer size; two-way is";
  print_endline
    "pinned: every extra buffered ACK inflates the effective pipe the other";
  print_endline "connection must fill, so the extra memory buys nothing."
