(* Two columns of equal length, so sample [i] sits at the same chunk and
   offset in both. *)
type t = { times : Column.Float.t; values : Column.Float.t }

let mask = Column.chunk_size - 1

let create () = { times = Column.Float.create (); values = Column.Float.create () }
let length t = Column.Float.length t.times
let is_empty t = length t = 0

(* Element [i] of a column, read straight from its chunk: an inlined
   two-level load, for the O(1) and O(log n) reads below. *)
let[@inline] at col i =
  Array.unsafe_get (Column.Float.chunk col (i lsr Column.chunk_bits)) (i land mask)

let check_time t time =
  let n = length t in
  if n > 0 && time < at t.times (n - 1) then
    invalid_arg "Series.add: time went backwards"

let add t ~time ~value =
  check_time t time;
  Column.Float.push t.times time;
  Column.Float.push t.values value

let add_int t ~time n =
  check_time t time;
  Column.Float.push t.times time;
  Column.Float.push_int t.values n

let get t i =
  if i < 0 || i >= length t then invalid_arg "Series.get: index out of range";
  (at t.times i, at t.values i)

(* A forward cursor over the samples.  It holds the chunks of sample [i]
   and reloads them only on crossing into the next chunk, so the scans
   below read plain arrays instead of indexing the spine per sample. *)
type cursor = {
  n : int;
  mutable i : int;
  mutable ts : float array;
  mutable vs : float array;
}

(* [i] must be a valid index. *)
let cursor t i =
  let c = i lsr Column.chunk_bits in
  { n = length t; i; ts = Column.Float.chunk t.times c;
    vs = Column.Float.chunk t.values c }

let[@inline] live c = c.i < c.n
let[@inline] time c = Array.unsafe_get c.ts (c.i land mask)
let[@inline] value c = Array.unsafe_get c.vs (c.i land mask)

let[@inline] next t c =
  c.i <- c.i + 1;
  if c.i land mask = 0 && c.i < c.n then begin
    let k = c.i lsr Column.chunk_bits in
    c.ts <- Column.Float.chunk t.times k;
    c.vs <- Column.Float.chunk t.values k
  end

let iter t ~f =
  if not (is_empty t) then begin
    let c = cursor t 0 in
    while live c do
      f ~time:(time c) ~value:(value c);
      next t c
    done
  end

let to_list t =
  let acc = ref [] in
  iter t ~f:(fun ~time ~value -> acc := (time, value) :: !acc);
  List.rev !acc

let of_list samples =
  let t = create () in
  List.iter (fun (time, value) -> add t ~time ~value) samples;
  t

(* Number of samples with time <= [time] ([strict]: < [time]); sample
   times are non-decreasing, so this is a binary search. *)
let count_upto ?(strict = false) t time =
  let lo = ref 0 and hi = ref (length t) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let tm = at t.times mid in
    if tm < time || ((not strict) && tm = time) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of the last sample with time <= [time], or -1. *)
let index_at t time = count_upto t time - 1

let value_at t ~time =
  let i = index_at t time in
  if i < 0 then None else Some (at t.values i)

let resample t ~t0 ~t1 ~dt =
  if is_empty t then invalid_arg "Series.resample: empty series";
  if dt <= 0. then invalid_arg "Series.resample: dt must be positive";
  if t1 <= t0 then invalid_arg "Series.resample: empty interval";
  let n = int_of_float (ceil ((t1 -. t0) /. dt -. 1e-9)) in
  (* The grid times are non-decreasing in k, so a single merge sweep
     replaces the per-point binary search: the cursor passes every sample
     with time <= grid time and only ever moves forward; [v] is the value
     of the last one passed (the first sample's before any). *)
  let out = Array.make n 0. in
  let c = cursor t 0 in
  let v = ref (value c) in
  for k = 0 to n - 1 do
    let time_k = t0 +. (dt *. float_of_int k) in
    while live c && time c <= time_k do
      v := value c;
      next t c
    done;
    out.(k) <- !v
  done;
  out

let window t ~t0 ~t1 =
  let acc = ref [] in
  let start = count_upto ~strict:true t t0 in
  if start < length t then begin
    let c = cursor t start in
    while live c && time c < t1 do
      acc := (time c, value c) :: !acc;
      next t c
    done
  end;
  List.rev !acc

let min_max t ~t0 ~t1 =
  if is_empty t || at t.times 0 > t1 then None
  else begin
    let c = cursor t (max 0 (index_at t t0)) in
    let lo = ref (value c) and hi = ref (value c) in
    while live c && time c <= t1 do
      let v = value c in
      if v < !lo then lo := v;
      if v > !hi then hi := v;
      next t c
    done;
    Some (!lo, !hi)
  end

let mean t ~t0 ~t1 =
  if is_empty t || at t.times 0 > t1 || t1 <= t0 then None
  else begin
    let total = ref 0. in
    let c = cursor t (max 0 (index_at t t0)) in
    let prev_time = ref t0 in
    let prev_value = ref (value c) in
    (* Walk samples strictly inside the window, accumulating value*dt. *)
    next t c;
    while live c && time c < t1 do
      let tm = time c in
      if tm > t0 then begin
        total := !total +. (!prev_value *. (tm -. !prev_time));
        prev_time := tm
      end;
      prev_value := value c;
      next t c
    done;
    total := !total +. (!prev_value *. (t1 -. !prev_time));
    Some (!total /. (t1 -. t0))
  end
