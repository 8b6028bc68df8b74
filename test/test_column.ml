(* Equivalence of the chunked column storage behind lib/trace.

   - Trace.Column against a plain list, at lengths that cross every
     doubling of chunk 0 and several chunk boundaries;
   - every Series query against a list-backed reference that re-states
     the flat-array implementation the columns replaced;
   - the Dep_log / Drop_log queries and Dep_log's ACK-sojourn fold
     against reference logs kept the old way (a record list per hook) on
     random packet streams through a live link, under every gateway
     discipline and through an outage that flushes the buffer.

   Floats are compared bit for bit. *)

open Trace

let bits = Int64.bits_of_float
let same_float a b = Int64.equal (bits a) (bits b)
let same_pair (a, b) (c, d) = same_float a c && same_float b d

let same_list eq xs ys =
  List.length xs = List.length ys && List.for_all2 eq xs ys

let same_option eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> eq x y
  | _ -> false

let chunk = Column.chunk_size

(* Every length at which chunk 0 doubles, plus the first three chunk
   boundaries, each with its neighbours. *)
let edge_lengths =
  let rec doublings c acc = if c > chunk then acc else doublings (2 * c) (c :: acc) in
  List.sort_uniq compare
    (List.concat_map
       (fun n -> [ n - 1; n; n + 1 ])
       (0 :: doublings 16 [] @ [ 2 * chunk; 3 * chunk; 4 * chunk ]))
  |> List.filter (fun n -> n >= 0)

(* --- Column vs list ----------------------------------------------------- *)

let float_column_agrees xs =
  let c = Column.Float.create () in
  List.iter (Column.Float.push c) xs;
  let n = List.length xs in
  let by_get = List.init (Column.Float.length c) (Column.Float.get c) in
  let by_chunk =
    List.concat
      (List.init (Column.chunk_count n) (fun k ->
           Array.to_list
             (Array.sub (Column.Float.chunk c k) 0 (Column.chunk_length n k))))
  in
  let raises f = try ignore (f () : float); false with Invalid_argument _ -> true in
  Column.Float.length c = n
  && same_list same_float by_get xs
  && same_list same_float by_chunk xs
  && raises (fun () -> Column.Float.get c n)
  && raises (fun () -> Column.Float.get c (-1))

let int_column_agrees xs =
  let c = Column.Int.create () in
  List.iter (Column.Int.push c) xs;
  let n = List.length xs in
  let by_chunk =
    List.concat
      (List.init (Column.chunk_count n) (fun k ->
           Array.to_list
             (Array.sub (Column.Int.chunk c k) 0 (Column.chunk_length n k))))
  in
  Column.Int.length c = n
  && List.init n (Column.Int.get c) = xs
  && by_chunk = xs

let test_column_edges () =
  List.iter
    (fun n ->
      let xs = List.init n (fun i -> Float.of_int i *. 0.1) in
      Alcotest.(check bool) (Printf.sprintf "float column, %d" n) true
        (float_column_agrees xs);
      Alcotest.(check bool) (Printf.sprintf "int column, %d" n) true
        (int_column_agrees (List.init n (fun i -> (i * 7919) - 5000))))
    edge_lengths

let test_chunk_geometry () =
  Alcotest.(check int) "no chunks when empty" 0 (Column.chunk_count 0);
  Alcotest.(check int) "one element" 1 (Column.chunk_count 1);
  Alcotest.(check int) "one full chunk" 1 (Column.chunk_count chunk);
  Alcotest.(check int) "spills" 2 (Column.chunk_count (chunk + 1));
  Alcotest.(check int) "tail length" 1 (Column.chunk_length (chunk + 1) 1);
  Alcotest.(check int) "head length" chunk (Column.chunk_length (chunk + 1) 0);
  let c = Column.Float.create () in
  Alcotest.check_raises "no chunk yet"
    (Invalid_argument "Column.chunk: index out of range") (fun () ->
      ignore (Column.Float.chunk c 0 : float array))

let any_float =
  (* Arbitrary bit patterns, NaNs and signed zeros included: a column
     stores what it is given. *)
  QCheck.Gen.(map Int64.float_of_bits int64)

let length_gen =
  QCheck.Gen.(
    frequency
      [ (2, int_bound 40); (1, oneofl edge_lengths); (2, int_bound ((4 * chunk) + 100)) ])

let prop_float_column =
  QCheck.Test.make ~name:"Column.Float == list" ~count:60
    (QCheck.make
       ~print:(fun xs -> Printf.sprintf "<%d floats>" (List.length xs))
       QCheck.Gen.(length_gen >>= fun n -> list_repeat n any_float))
    float_column_agrees

let prop_int_column =
  QCheck.Test.make ~name:"Column.Int == list" ~count:60
    (QCheck.make
       ~print:(fun xs -> Printf.sprintf "<%d ints>" (List.length xs))
       QCheck.Gen.(length_gen >>= fun n -> list_repeat n int))
    int_column_agrees

(* --- Series vs a list-backed reference ----------------------------------- *)

(* The flat-array implementation Series had before its columns, over the
   sample list. *)
module Ref_series = struct
  type t = { times : float array; values : float array; len : int }

  let of_list samples =
    { times = Array.of_list (List.map fst samples);
      values = Array.of_list (List.map snd samples);
      len = List.length samples }

  let index_at t time =
    if t.len = 0 || time < t.times.(0) then -1
    else begin
      let lo = ref 0 and hi = ref (t.len - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if t.times.(mid) <= time then lo := mid else hi := mid - 1
      done;
      !lo
    end

  let value_at t ~time =
    let i = index_at t time in
    if i < 0 then None else Some t.values.(i)

  let resample t ~t0 ~t1 ~dt =
    let n = int_of_float (ceil ((t1 -. t0) /. dt -. 1e-9)) in
    Array.init n (fun k ->
        let time = t0 +. (dt *. float_of_int k) in
        match value_at t ~time with None -> t.values.(0) | Some v -> v)

  let window t ~t0 ~t1 =
    List.filter
      (fun (time, _) -> time >= t0 && time < t1)
      (List.init t.len (fun i -> (t.times.(i), t.values.(i))))

  let min_max t ~t0 ~t1 =
    if t.len = 0 || t.times.(0) > t1 then None
    else begin
      let start = max 0 (index_at t t0) in
      let lo = ref t.values.(start) and hi = ref t.values.(start) in
      let i = ref start in
      while !i < t.len && t.times.(!i) <= t1 do
        let v = t.values.(!i) in
        if v < !lo then lo := v;
        if v > !hi then hi := v;
        incr i
      done;
      Some (!lo, !hi)
    end

  let mean t ~t0 ~t1 =
    if t.len = 0 || t.times.(0) > t1 || t1 <= t0 then None
    else begin
      let total = ref 0. in
      let start = max 0 (index_at t t0) in
      let i = ref (start + 1) in
      let prev_time = ref t0 in
      let prev_value = ref t.values.(start) in
      while !i < t.len && t.times.(!i) < t1 do
        if t.times.(!i) > t0 then begin
          let time = Float.max t0 t.times.(!i) in
          total := !total +. (!prev_value *. (time -. !prev_time));
          prev_time := time;
          prev_value := t.values.(!i)
        end
        else prev_value := t.values.(!i);
        incr i
      done;
      total := !total +. (!prev_value *. (t1 -. !prev_time));
      Some (!total /. (t1 -. t0))
    end
end

(* A random step series: non-decreasing times with repeats (a quarter of
   the steps are zero), values with fractional parts; plus query
   windows and a resampling period drawn around its span. *)
type series_case = {
  samples : (float * float) list;
  probes : (float * float) list;  (* windows [t0, t1] *)
  dt : float;
}

let series_case_gen =
  let open QCheck.Gen in
  length_gen >>= fun n ->
  list_repeat n (pair (frequency [ (1, return 0); (3, int_range 1 8) ]) (int_range (-400) 400))
  >>= fun steps ->
  let _, samples =
    List.fold_left
      (fun (t, acc) (step, v) ->
        let t = t +. (float_of_int step *. 0.25) in
        (t, (t, float_of_int v /. 7.) :: acc))
      (0., []) steps
  in
  let samples = List.rev samples in
  let span = match List.rev samples with [] -> 1. | (t, _) :: _ -> t +. 1. in
  (* Half the probe points land on the quarter grid, so windows often
     start or end exactly on a sample time. *)
  let point =
    frequency
      [ (1, map (fun u -> (u *. (span +. 4.)) -. 2.) (float_bound_inclusive 1.));
        (1, map (fun q -> float_of_int q *. 0.25) (int_range (-8) (int_of_float (4. *. span) + 8))) ]
  in
  list_repeat 6 (pair point point) >>= fun probes ->
  map
    (fun k -> { samples; probes; dt = Float.max 0.01 (span /. float_of_int k) })
    (int_range 1 3000)

let series_agrees { samples; probes; dt } =
  let s = Series.of_list samples and r = Ref_series.of_list samples in
  let n = List.length samples in
  let ok = ref (Series.length s = n && Series.is_empty s = (n = 0)) in
  let check b = if not b then ok := false in
  check (same_list same_pair (Series.to_list s) samples);
  List.iteri (fun i p -> check (same_pair (Series.get s i) p)) samples;
  let iterated = ref [] in
  Series.iter s ~f:(fun ~time ~value -> iterated := (time, value) :: !iterated);
  check (same_list same_pair (List.rev !iterated) samples);
  List.iter
    (fun (a, b) ->
      let t0 = Float.min a b and t1 = Float.max a b in
      check (same_option same_float (Series.value_at s ~time:a) (Ref_series.value_at r ~time:a));
      check (same_list same_pair (Series.window s ~t0 ~t1) (Ref_series.window r ~t0 ~t1));
      check (same_option same_pair (Series.min_max s ~t0 ~t1) (Ref_series.min_max r ~t0 ~t1));
      check (same_option same_float (Series.mean s ~t0 ~t1) (Ref_series.mean r ~t0 ~t1));
      if n > 0 && t1 > t0 then
        check
          (same_list same_float
             (Array.to_list (Series.resample s ~t0 ~t1 ~dt))
             (Array.to_list (Ref_series.resample r ~t0 ~t1 ~dt))))
    probes;
  !ok

let prop_series =
  QCheck.Test.make ~name:"Series queries == list-backed reference" ~count:80
    (QCheck.make
       ~print:(fun c ->
         Printf.sprintf "<%d samples, dt %g>" (List.length c.samples) c.dt)
       series_case_gen)
    series_agrees

(* --- Per-packet logs vs record lists ------------------------------------- *)

(* The logs as they were kept before their columns: one record list per
   hook, newest first, fed by hooks on the same link. *)
type ref_logs = {
  mutable deps : Dep_log.record list;
  mutable drops : Drop_log.record list;
}

type stream = {
  discipline : Net.Discipline.kind;
  sends : (float * int * Net.Packet.kind * int) list;
      (* gap in transmission times, conn, kind, seq *)
  outage : (int * float) option;
      (* (k, d): the first send from the k-th on that leaves a packet
         queued behind the one in service takes the link down for d
         transmission times, flushing both *)
  windows : (float * float) list;
  fold_from : float;
      (* the ACK-sojourn fold's start, as a fraction of the last send *)
}

let stream_gen =
  let open QCheck.Gen in
  map
    (fun ((discipline, sends, outage, windows), fold_from) ->
      { discipline; sends; outage; windows; fold_from })
    (pair
       (quad
          (oneofl
             [ Net.Discipline.Fifo; Net.Discipline.Random_drop { seed = 7 };
               Net.Discipline.Fair_queue ])
          (length_gen >>= fun n ->
           list_repeat n
             (quad
                (frequency [ (1, return 0.); (3, float_bound_inclusive 3.) ])
                (int_range 1 6)
                (oneofl [ Net.Packet.Data; Net.Packet.Ack ]) (int_bound 100_000)))
          (opt (pair (int_bound 200) (float_bound_inclusive 20.)))
          (list_repeat 5
             (pair (float_bound_inclusive 1.2) (float_bound_inclusive 1.2))))
       (float_bound_inclusive 1.2))

(* Returns the logs (the kept one, and one that keeps only the ACK fold
   from [fold_t0]), the reference, the horizon and how many packets the
   outage found in the buffer (0 when it never fired). *)
let run_stream { discipline; sends; outage; fold_from; _ } =
  let sim = Engine.Sim.create () in
  let link =
    Net.Link.create ~discipline sim ~id:4 ~name:"l" ~src:0 ~dst:1
      ~bandwidth:1e6 ~prop_delay:0.001 ~buffer:(Some 6)
  in
  Net.Link.set_deliver link (fun _ -> ());
  let tx = Net.Link.tx_time link ~bytes:500 in
  let flushed = ref 0 in
  let cut =
    match outage with
    | None -> fun _ -> ()
    | Some (k, down) ->
      Net.Link.install_faults link
        ~ingress:(fun _ -> `Pass)
        ~extra_delay:(fun _ -> 0.)
        ~clone:Fun.id;
      fun i ->
        let queued = Net.Link.queue_length link in
        if i >= k && !flushed = 0 && queued >= 2 then begin
          flushed := queued;
          Net.Link.set_down link true;
          ignore
            (Engine.Sim.schedule sim ~delay:(down *. tx) (fun () ->
                 Net.Link.set_down link false)
              : Engine.Sim.handle)
        end
  in
  let dep = Dep_log.attach link in
  let fold_t0 =
    fold_from *. tx *. List.fold_left (fun acc (gap, _, _, _) -> acc +. gap) 0. sends
  in
  let fold = Dep_log.attach ~keep:false ~t0:fold_t0 link in
  let drops = Drop_log.create () in
  Drop_log.watch drops link;
  let r = { deps = []; drops = [] } in
  let entered = Hashtbl.create 64 in
  Net.Link.on_enqueue link (fun (p : Net.Packet.t) ->
      Hashtbl.replace entered p.id (Net.Link.now link));
  Net.Link.on_drop link (fun (p : Net.Packet.t) ->
      let time = Net.Link.now link in
      Hashtbl.remove entered p.id;
      r.drops <-
        { Drop_log.time; conn = p.conn; kind = p.kind; seq = p.seq; link = 4 }
        :: r.drops);
  Net.Link.on_depart link (fun (p : Net.Packet.t) ->
      let time = Net.Link.now link in
      let sojourn =
        match Hashtbl.find_opt entered p.id with
        | None -> Float.nan
        | Some t_in ->
          Hashtbl.remove entered p.id;
          time -. t_in
      in
      r.deps <-
        { Dep_log.time; conn = p.conn; kind = p.kind; seq = p.seq; sojourn }
        :: r.deps);
  let _ =
    List.fold_left
      (fun (time, id) (gap, conn, kind, seq) ->
        let time = time +. (gap *. tx) in
        let p =
          { Net.Packet.id; conn; kind; seq; size = 500; src = 0; dst = 1;
            retransmit = false }
        in
        ignore
          (Engine.Sim.at sim ~time (fun () ->
               ignore (Net.Link.send link p : [ `Ok | `Dropped ]);
               cut id)
            : Engine.Sim.handle);
        (time, id + 1))
      (0., 0) sends
  in
  Engine.Sim.run_to_completion sim;
  let horizon = Engine.Sim.now sim in
  ((dep, fold, fold_t0), drops, r, horizon, !flushed)

let same_dep (a : Dep_log.record) (b : Dep_log.record) =
  same_float a.time b.time && a.conn = b.conn && a.kind = b.kind && a.seq = b.seq
  && same_float a.sojourn b.sojourn

let same_drop (a : Drop_log.record) (b : Drop_log.record) =
  same_float a.time b.time && a.conn = b.conn && a.kind = b.kind
  && a.seq = b.seq && a.link = b.link

let logs_agree stream =
  let (dep, fold, fold_t0), drops, r, horizon, _ = run_stream stream in
  let deps = List.rev r.deps and drop_list = List.rev r.drops in
  let within t0 t1 time = time >= t0 && time < t1 in
  let ok = ref true in
  let check b = if not b then ok := false in
  check (same_list same_dep (Dep_log.records dep) deps);
  check (same_list same_drop (Drop_log.records drops) drop_list);
  check (Dep_log.total dep = List.length deps);
  check (Drop_log.total drops = List.length drop_list);
  List.iter
    (fun (a, b) ->
      let t0 = horizon *. Float.min a b and t1 = horizon *. Float.max a b in
      let dep_window =
        List.filter (fun (d : Dep_log.record) -> within t0 t1 d.time) deps
      in
      check (same_list same_dep (Dep_log.in_window dep ~t0 ~t1) dep_window);
      check
        (same_list same_drop (Drop_log.in_window drops ~t0 ~t1)
           (List.filter (fun (d : Drop_log.record) -> within t0 t1 d.time) drop_list)))
    stream.windows;
  (* The ACK fold against the reference's: filter, then a left fold,
     up to the horizon and up to the last departure, which it leaves
     out when that is an ACK. *)
  let ack_mean ~t0 ~t1 =
    match
      List.filter
        (fun (d : Dep_log.record) ->
          d.kind = Net.Packet.Ack && within t0 t1 d.time
          && not (Float.is_nan d.sojourn))
        deps
    with
    | [] -> None
    | acks ->
      let total =
        List.fold_left (fun acc (d : Dep_log.record) -> acc +. d.sojourn) 0. acks
      in
      Some (total /. float_of_int (List.length acks))
  in
  let last =
    List.fold_left (fun _ (d : Dep_log.record) -> d.time) horizon deps
  in
  List.iter
    (fun t1 ->
      check
        (same_option same_float (Dep_log.mean_ack_sojourn dep ~t1)
           (ack_mean ~t0:Float.neg_infinity ~t1));
      check
        (same_option same_float (Dep_log.mean_ack_sojourn fold ~t1)
           (ack_mean ~t0:fold_t0 ~t1)))
    [ horizon; last ];
  !ok

let prop_logs =
  QCheck.Test.make ~name:"Dep_log/Drop_log == record lists" ~count:40
    (QCheck.make
       ~print:(fun s ->
         Printf.sprintf "<%s, %d sends, %s>"
           (Net.Discipline.kind_to_string s.discipline)
           (List.length s.sends)
           (match s.outage with
            | None -> "no outage"
            | Some (k, d) -> Printf.sprintf "outage after send %d for %g tx" k d))
       stream_gen)
    logs_agree

let test_logs_cross_chunks () =
  (* A deterministic stream long enough that every log spills into its
     fourth chunk. *)
  let n = (3 * chunk) + 500 in
  let sends =
    List.init n (fun i ->
        ( (if i mod 5 = 0 then 0. else 1.5),
          1 + (i mod 4),
          (if i mod 3 = 0 then Net.Packet.Ack else Net.Packet.Data),
          i ))
  in
  let stream =
    { discipline = Net.Discipline.Fifo; sends; outage = None;
      windows = [ (0., 1.); (0.2, 0.9); (0.5, 0.5); (0.99, 0.1) ];
      fold_from = 0.3 }
  in
  let (dep, _, _), _, _, _, _ = run_stream stream in
  Alcotest.(check bool) "fourth chunk reached" true (Dep_log.total dep > 3 * chunk);
  Alcotest.(check bool) "logs agree" true (logs_agree stream)

let test_logs_outage_flush () =
  (* Bursts from five connections: under Fair Queueing packets leave out
     of arrival order, and the outage after send 40 flushes the packet in
     service and the queue behind it; sends during the outage are
     discarded before the buffer. *)
  let sends =
    List.init 120 (fun i ->
        ( (if i mod 4 = 0 then 2.5 else 0.),
          1 + (i mod 5),
          (if i mod 3 = 0 then Net.Packet.Ack else Net.Packet.Data),
          i ))
  in
  List.iter
    (fun discipline ->
      let stream =
        { discipline; sends; outage = Some (40, 6.);
          windows = [ (0., 1.); (0.1, 0.6); (0.4, 0.9) ]; fold_from = 0.5 }
      in
      let name = Net.Discipline.kind_to_string discipline in
      let _, _, _, _, flushed = run_stream stream in
      Alcotest.(check bool) (name ^ ": outage flushed a queue") true (flushed >= 2);
      Alcotest.(check bool) (name ^ ": logs agree") true (logs_agree stream))
    [ Net.Discipline.Fifo; Net.Discipline.Random_drop { seed = 7 };
      Net.Discipline.Fair_queue ]

let test_pack_roundtrip () =
  List.iter
    (fun conn ->
      List.iter
        (fun kind ->
          let code = Rows.pack ~conn ~kind in
          Alcotest.(check int) "conn" conn (Rows.conn code);
          Alcotest.(check bool) "kind" true (Rows.kind code = kind))
        [ Net.Packet.Data; Net.Packet.Ack ])
    [ 0; 1; 2; 17; -1; -42; max_int asr 1; min_int asr 1 ]

let suite =
  ( "column",
    [
      Alcotest.test_case "column at every edge length" `Quick test_column_edges;
      Alcotest.test_case "chunk geometry" `Quick test_chunk_geometry;
      Alcotest.test_case "conn/kind packing" `Quick test_pack_roundtrip;
      Alcotest.test_case "logs across chunk boundaries" `Quick test_logs_cross_chunks;
      Alcotest.test_case "logs through an outage flush" `Quick test_logs_outage_flush;
      QCheck_alcotest.to_alcotest prop_float_column;
      QCheck_alcotest.to_alcotest prop_int_column;
      QCheck_alcotest.to_alcotest prop_series;
      QCheck_alcotest.to_alcotest prop_logs;
    ] )
