(* Timing that survives a shared machine.

   On a shared host the speed of the whole machine drifts: for minutes
   at a time every rep, of any code, runs up to 1.7x slower.  A median
   cannot remove a slowdown that covers a whole run.  So after each
   timed sample the benchmark times [kernel], fixed bench-side work
   that no netsim change can touch, and reports the sample scaled to a
   machine on which the kernel takes [nominal] seconds.  The scaled
   time moves only when the timed code does.  Each run also prints its
   raw wall-clock medians. *)

let now = Unix.gettimeofday

(* Kernel time, in seconds, of the machine scaled to.  A constant:
   changing it rescales every reported time. *)
let nominal = 0.02

(* Small allocations, hashing, list walks and float arithmetic: the
   instruction mix of the simulator's event loop. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0. in
  for i = 0 to 150_000 do
    let k = (i * 7919) land 4095 in
    let l = Option.value (Hashtbl.find_opt h k) ~default:[] in
    Hashtbl.replace h k
      ((float_of_int i *. 1.0001) :: (if List.length l > 8 then [] else l));
    acc := !acc +. float_of_int k
  done;
  !acc

(* Seconds the kernel takes right now, on a freshly collected heap. *)
let kernel_s () =
  Gc.full_major ();
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()) : float);
  now () -. t0

(* [raw] seconds measured while the kernel took [k] seconds. *)
let scale ~k raw = raw *. nominal /. k

(* Times [f ()] after a full collection; returns its result and its
   scaled seconds.  The result is alive while the kernel runs, so [f]
   should return a small summary of what it built, not the thing. *)
let time f =
  Gc.full_major ();
  let t0 = now () in
  let v = f () in
  let raw = now () -. t0 in
  (v, scale ~k:(kernel_s ()) raw)

(* Linearly interpolated quantile [p] of a list of samples. *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let x = p *. float_of_int (Array.length a - 1) in
  let i = int_of_float x in
  let f = x -. float_of_int i in
  if i + 1 < Array.length a then (a.(i) *. (1. -. f)) +. (a.(i + 1) *. f) else a.(i)

let median = quantile 0.5
