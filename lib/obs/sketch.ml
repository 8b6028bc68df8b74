(* Streaming log-bucket quantile sketch (DDSketch-style).

   Values are mapped to geometric buckets: value [v > min_value] lands in
   bucket [ceil (log v / log gamma)] where [gamma = (1+alpha)/(1-alpha)].
   Every value mapping to bucket [i] lies in (gamma^(i-1), gamma^i], so
   the midpoint estimate [2 gamma^i / (gamma+1)] is within relative error
   [alpha] of any of them — and therefore of the exact sample at any rank
   whose value fell in that bucket.  Memory is bounded: at most
   [max_buckets] live buckets; exceeding the cap collapses the two lowest
   buckets into one (accuracy degrades only at the far low tail, and
   [collapsed] reports that it happened).

   The exact minimum and maximum are tracked on the side, so quantile
   estimates are clamped into the observed range and q = 0 / q = 1 are
   exact.  Values at or below [min_value] (including zero and negatives,
   which the log mapping cannot represent) are counted in a dedicated
   underflow bucket estimated by the observed minimum.

   Everything is deterministic: bucket contents are integer counts, the
   quantile walk sorts bucket indices, and merging is count addition —
   the same samples in the same order always produce the same answers,
   which the byte-identical online/offline flow summaries rely on. *)

type t = {
  max_buckets : int;
  buckets : (int, int) Hashtbl.t;
  mutable underflow : int;  (* values <= min_value *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable collapsed : bool;
}

(* Below this the log mapping would need huge negative indices; the
   simulator's time-like quantities (RTTs, FCTs, seconds) never get
   near it. *)
let min_value = 1e-12

let alpha = 0.01
let gamma = (1. +. alpha) /. (1. -. alpha)
let log_gamma = log gamma

let create ?(max_buckets = 2048) () =
  if max_buckets < 2 then invalid_arg "Sketch.create: max_buckets < 2";
  {
    max_buckets;
    buckets = Hashtbl.create 64;
    underflow = 0;
    count = 0;
    sum = 0.;
    min_v = infinity;
    max_v = neg_infinity;
    collapsed = false;
  }

let count t = t.count
let sum t = t.sum
let is_empty t = t.count = 0
let collapsed t = t.collapsed
let min t = if t.count = 0 then None else Some t.min_v

let mean t = if t.count = 0 then None else Some (t.sum /. float_of_int t.count)

let sorted_keys t =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.buckets [] in
  List.sort compare keys

(* Merge the two lowest buckets so the table never exceeds
   [max_buckets]: the low tail loses resolution, the quantiles people
   actually read (p50 and up) keep the full guarantee. *)
let collapse_lowest t =
  match sorted_keys t with
  | k0 :: k1 :: _ ->
    let c0 = try Hashtbl.find t.buckets k0 with Not_found -> 0 in
    let c1 = try Hashtbl.find t.buckets k1 with Not_found -> 0 in
    Hashtbl.remove t.buckets k0;
    Hashtbl.replace t.buckets k1 (c0 + c1);
    t.collapsed <- true
  | _ -> ()

let bump t key by =
  (match Hashtbl.find_opt t.buckets key with
   | Some c -> Hashtbl.replace t.buckets key (c + by)
   | None ->
     Hashtbl.add t.buckets key by;
     if Hashtbl.length t.buckets > t.max_buckets then collapse_lowest t);
  t.count <- t.count + by

let key_of v = int_of_float (Float.ceil (log v /. log_gamma))

let add t v =
  if Float.is_nan v then invalid_arg "Sketch.add: nan";
  if v > min_value && v < infinity then bump t (key_of v) 1
  else begin
    t.underflow <- t.underflow + 1;
    t.count <- t.count + 1
  end;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let merge ~into src =
  Hashtbl.iter (fun k c -> bump into k c) src.buckets;
  into.underflow <- into.underflow + src.underflow;
  into.count <- into.count + src.underflow;
  into.sum <- into.sum +. src.sum;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v;
  if src.collapsed then into.collapsed <- true

let clamp t v =
  if v < t.min_v then t.min_v else if v > t.max_v then t.max_v else v

let quantile t q =
  if Float.is_nan q || q < 0. || q > 1. then
    invalid_arg "Sketch.quantile: q outside [0, 1]";
  if t.count = 0 then None
  else if q <= 0. then Some t.min_v
  else if q >= 1. then Some t.max_v
  else begin
    (* Same rank convention the tests use on the exact side: the value
       at (0-based) index [floor (q * (count - 1))] of the sorted
       samples. *)
    let rank = int_of_float (q *. float_of_int (t.count - 1)) in
    if rank < t.underflow then Some t.min_v
    else begin
      let cum = ref t.underflow in
      let found = ref None in
      List.iter
        (fun k ->
          if !found = None then begin
            cum := !cum + Hashtbl.find t.buckets k;
            if !cum > rank then found := Some k
          end)
        (sorted_keys t);
      match !found with
      | None -> Some t.max_v  (* unreachable: counts sum to [count] *)
      | Some k ->
        let est =
          2. *. exp (float_of_int k *. log_gamma) /. (gamma +. 1.)
        in
        Some (clamp t est)
    end
  end
