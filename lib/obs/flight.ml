(* Invariants:
     0 <= cursor < capacity          (next slot to write)
     0 <= filled <= capacity         (slots holding live entries)
     total >= filled                 (saturates at max_int, never wraps)
   Slot arithmetic uses only [cursor], which is reset with an explicit
   compare — [total mod capacity] would go negative (and [entries] would
   index out of bounds) if the int ever wrapped past max_int. *)
type 'a t = {
  ring : 'a option array;
  mutable cursor : int;
  mutable filled : int;
  mutable total : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Flight.create: capacity must be >= 1";
  { ring = Array.make capacity None; cursor = 0; filled = 0; total = 0 }

let length t = t.filled
let total t = t.total

let record t x =
  t.ring.(t.cursor) <- Some x;
  t.cursor <- (if t.cursor + 1 = Array.length t.ring then 0 else t.cursor + 1);
  if t.filled < Array.length t.ring then t.filled <- t.filled + 1;
  if t.total < max_int then t.total <- t.total + 1

(* Test hook for the wrap boundary: pretend [n] entries were ever
   recorded without touching the ring contents. *)
let force_total t n =
  if n < t.filled then invalid_arg "Flight.force_total: below filled";
  t.total <- n

let entries t =
  let cap = Array.length t.ring in
  let first = (t.cursor - t.filled + cap) mod cap in
  List.init t.filled (fun i ->
      match t.ring.((first + i) mod cap) with
      | Some x -> x
      | None -> assert false (* filled counts only written slots *))

let dump t ~reason ~render write =
  write
    (Printf.sprintf
       "=== flight recorder: %s (last %d of %d events) ===\n" reason t.filled
       t.total);
  List.iter
    (fun x ->
      write (render x);
      write "\n")
    (entries t);
  write "=== end flight recorder ===\n"
