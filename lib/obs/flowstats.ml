(* Per-flow accounting registry.

   One mutable record per connection, in an int-keyed hash table, so
   memory follows the number of flows, never the largest id (a trace
   may declare any conn id).  The steady-state accounting path allocates
   nothing: a per-connection probe hook holds the record it found at
   attach time, the by-conn lookup is [Int_tbl.find] with a [Not_found]
   handler (no option box), and every update is an int/float store into
   an existing record.  The exceptions are once per round trip or rarer:
   an RTT sample boxes the sketch's float sum and extrema, and a
   quantile-sketch bucket is made on first use.  The sketch is the
   flow's only RTT store: count, mean, min and max are read from it.

   The same accounting functions are driven from two sources that must
   agree bit-for-bit:

     online   {!Probe} hooks during a live run
     offline  {!observer} on each record {!Btrace.decode} reports
              (or {!feed} on each item {!Btrace.read} builds)

   so the accounting mirrors the sender's own bookkeeping exactly — in
   particular Karn's algorithm for RTT sampling:

     - a first-transmission Send starts the timer when none is running
       (the sender sets [timed_seq] in [send_one] under the same
       condition)
     - any Loss and any retransmitted Send clear the timer (the sender
       clears [timed_seq] in [handle_loss] and before every hole
       retransmission; by the time a retransmitted packet's Send hook
       fires the sender's timer is already clear, so clearing here too is
       a faithful no-op that keeps the mirror robust)
     - a cumulative ACK past the timed sequence samples
       [deliver_time - send_time] and clears the timer (the sender
       samples at the same simulation instant the ACK is delivered)

   Delivered data, retransmit counts and flow-completion times follow the
   same discipline: an ACK record carries the cumulative ackno in its
   [seq] field, completion fires when the ackno covers a sized flow.
   Since every input (event times, cwnd values, packet sizes) travels
   through the binary trace bit-exactly, the offline fold reproduces the
   online summary byte for byte. *)

type flow = {
  conn : int;
  mutable start_time : float;
  mutable flow_size : int option;  (* packets; None = infinite source *)
  mutable delivered_pkts : int;
  mutable delivered_bytes : int;
  mutable data_sends : int;
  mutable retransmits : int;
  mutable loss_events : int;
  mutable snd_una : int;
  mutable timing_seq : int;  (* Karn timer mirror; -1 = not timing *)
  mutable timing_sent : float;
  rtt : Sketch.t;  (* every RTT sample: count, sum, min, max, quantiles *)
  mutable cwnd_min : float;
  mutable cwnd_max : float;
  mutable completed_at : float;  (* nan = not (yet) complete *)
}

type t = flow Engine.Int_tbl.t

let create () : t = Engine.Int_tbl.create 16

let fresh_flow conn ~start_time ~flow_size =
  {
    conn;
    start_time;
    flow_size;
    delivered_pkts = 0;
    delivered_bytes = 0;
    data_sends = 0;
    retransmits = 0;
    loss_events = 0;
    snd_una = 0;
    timing_seq = -1;
    timing_sent = 0.;
    rtt = Sketch.create ();
    cwnd_min = infinity;
    cwnd_max = neg_infinity;
    completed_at = nan;
  }

let register t ~conn ~start_time ~flow_size =
  if conn < 0 then invalid_arg "Flowstats.register: negative conn id";
  match Engine.Int_tbl.find t conn with
  | f ->
    (* Re-registration only refreshes metadata (a conn-meta record after
       a bare conn-def); accumulated counters are kept. *)
    f.start_time <- start_time;
    f.flow_size <- flow_size
  | exception Not_found ->
    Engine.Int_tbl.replace t conn (fresh_flow conn ~start_time ~flow_size)

(* ------------------------------------------------------------------ *)
(* Accounting (shared by the online hooks and the offline trace fold)  *)
(* ------------------------------------------------------------------ *)

(* Each accounting rule exists once, on a flow record.  The online
   per-connection hooks call it on the record they hold; [record_*]
   (the network-wide deliver hook, the offline fold, tests) look the
   record up by conn and ignore unregistered ones.  The rules that take
   a float are inlined, so the offline fold's time or window, read from
   the decoder's flat cell, is boxed only where a rule stores it: the
   fold allocated 0.37 words a record of the 1000 s fig-3 trace when
   each call boxed it, and 0.09 now. *)

let flow t ~conn = Engine.Int_tbl.find t conn

let[@inline] flow_send f ~time ~seq ~retransmit =
  if retransmit then begin
    f.retransmits <- f.retransmits + 1;
    f.timing_seq <- -1
  end
  else begin
    f.data_sends <- f.data_sends + 1;
    if f.timing_seq < 0 then begin
      f.timing_seq <- seq;
      f.timing_sent <- time
    end
  end

let flow_loss f =
  f.loss_events <- f.loss_events + 1;
  f.timing_seq <- -1

let[@inline] flow_cwnd f ~cwnd =
  if cwnd < f.cwnd_min then f.cwnd_min <- cwnd;
  if cwnd > f.cwnd_max then f.cwnd_max <- cwnd

let data_delivered f ~bytes =
  f.delivered_pkts <- f.delivered_pkts + 1;
  f.delivered_bytes <- f.delivered_bytes + bytes

let[@inline] ack_delivered f ~time ~ackno =
  if ackno > f.snd_una then begin
    if f.timing_seq >= 0 && ackno > f.timing_seq then begin
      Sketch.add f.rtt (time -. f.timing_sent);
      f.timing_seq <- -1
    end;
    f.snd_una <- ackno;
    match f.flow_size with
    | Some n when f.snd_una >= n && Float.is_nan f.completed_at ->
      f.completed_at <- time
    | _ -> ()
  end

let[@inline] record_send t ~time ~conn ~seq ~retransmit =
  match Engine.Int_tbl.find t conn with
  | f -> flow_send f ~time ~seq ~retransmit
  | exception Not_found -> ()

let record_data_delivered t ~conn ~bytes =
  match Engine.Int_tbl.find t conn with
  | f -> data_delivered f ~bytes
  | exception Not_found -> ()

let[@inline] record_ack_delivered t ~time ~conn ~ackno =
  match Engine.Int_tbl.find t conn with
  | f -> ack_delivered f ~time ~ackno
  | exception Not_found -> ()

let record_loss t ~conn =
  match Engine.Int_tbl.find t conn with
  | f -> flow_loss f
  | exception Not_found -> ()

let[@inline] record_cwnd t ~conn ~cwnd =
  match Engine.Int_tbl.find t conn with
  | f -> flow_cwnd f ~cwnd
  | exception Not_found -> ()

(* ------------------------------------------------------------------ *)
(* Offline: fold a binary trace                                        *)
(* ------------------------------------------------------------------ *)

let ensure t conn =
  if not (Engine.Int_tbl.mem t conn) then
    register t ~conn ~start_time:0. ~flow_size:None

let flow_size size = if size = 0 then None else Some (size - 1)

(* The [record_*] rules on the decoder's callbacks, reading times and
   windows from its cell: no item is built, and a time reaches the
   accounting unboxed. *)
let observer t (cell : Btrace.cell) =
  {
    Btrace.ignore_all with
    on_conn = ensure t;
    on_conn_meta =
      (fun conn size ->
        register t ~conn ~start_time:cell.start_time
          ~flow_size:(flow_size size));
    on_send =
      (fun conn _id _pconn flags seq _size ->
        record_send t ~time:cell.time ~conn ~seq
          ~retransmit:(flags land 2 <> 0));
    on_deliver =
      (fun _id conn flags seq size ->
        if flags land 1 = 0 then record_data_delivered t ~conn ~bytes:size
        else record_ack_delivered t ~time:cell.time ~conn ~ackno:seq);
    on_loss = (fun conn _reason -> record_loss t ~conn);
    on_cwnd = (fun conn -> record_cwnd t ~conn ~cwnd:cell.cwnd);
  }

let feed t (item : Btrace.item) =
  match item with
  | Btrace.Def_link _ -> ()
  | Btrace.Def_conn conn -> ensure t conn
  | Btrace.Def_conn_meta { conn; start_time; flow_size } ->
    register t ~conn ~start_time ~flow_size
  | Btrace.Event (time, ev) -> (
    match ev with
    | Btrace.Send { conn; pkt } ->
      record_send t ~time ~conn ~seq:pkt.Btrace.seq
        ~retransmit:pkt.Btrace.retransmit
    | Btrace.Deliver p -> (
      match p.Btrace.kind with
      | Net.Packet.Data ->
        record_data_delivered t ~conn:p.Btrace.conn ~bytes:p.Btrace.size
      | Net.Packet.Ack ->
        record_ack_delivered t ~time ~conn:p.Btrace.conn ~ackno:p.Btrace.seq)
    | Btrace.Loss { conn; _ } -> record_loss t ~conn
    | Btrace.Cwnd { conn; cwnd; _ } -> record_cwnd t ~conn ~cwnd
    | Btrace.Inject _ | Btrace.Enqueue _ | Btrace.Drop _ | Btrace.Depart _
    | Btrace.Fault _ | Btrace.Ack_tx _ ->
      ())

(* ------------------------------------------------------------------ *)
(* Views                                                               *)
(* ------------------------------------------------------------------ *)

type stats = {
  s_conn : int;
  s_start_time : float;
  s_flow_size : int option;
  s_delivered_pkts : int;
  s_delivered_bytes : int;
  s_data_sends : int;
  s_retransmits : int;
  s_loss_events : int;
  s_acked_pkts : int;
  s_rtt_samples : int;
  s_rtt_min : float option;
  s_rtt_mean : float option;
  s_rtt_max : float option;
  s_rtt_p50 : float option;
  s_rtt_p99 : float option;
  s_cwnd_min : float option;
  s_cwnd_max : float option;
  s_fct : float option;
  s_throughput : float option;
}

let finite f = if Float.is_nan f || Float.abs f = infinity then None else Some f

let stats_of_flow f =
  let fct =
    if Float.is_nan f.completed_at then None
    else Some (f.completed_at -. f.start_time)
  in
  {
    s_conn = f.conn;
    s_start_time = f.start_time;
    s_flow_size = f.flow_size;
    s_delivered_pkts = f.delivered_pkts;
    s_delivered_bytes = f.delivered_bytes;
    s_data_sends = f.data_sends;
    s_retransmits = f.retransmits;
    s_loss_events = f.loss_events;
    s_acked_pkts = f.snd_una;
    s_rtt_samples = Sketch.count f.rtt;
    s_rtt_min = Sketch.min f.rtt;
    s_rtt_mean = Sketch.mean f.rtt;
    s_rtt_max = Sketch.quantile f.rtt 1.;
    s_rtt_p50 = Sketch.quantile f.rtt 0.5;
    s_rtt_p99 = Sketch.quantile f.rtt 0.99;
    s_cwnd_min = finite f.cwnd_min;
    s_cwnd_max = finite f.cwnd_max;
    s_fct = fct;
    s_throughput =
      (match fct with
       | Some d when d > 0. -> Some (float_of_int f.delivered_bytes /. d)
       | _ -> None);
  }

(* Flows in connection-id order: the deterministic iteration order
   every aggregate below uses, independent of registration order. *)
let flows t =
  List.sort
    (fun a b -> compare a.conn b.conn)
    (List.of_seq (Engine.Int_tbl.to_seq_values t))

let all t = List.map stats_of_flow (flows t)

let stats t ~conn = Option.map stats_of_flow (Engine.Int_tbl.find_opt t conn)

let jain t =
  match flows t with
  | [] -> None
  | fs ->
    Some
      (Analysis.Fairness.jain
         (Array.of_list (List.map (fun f -> float_of_int f.delivered_bytes) fs)))

let fct_sketch t =
  let sk = Sketch.create () in
  List.iter
    (fun f ->
      if not (Float.is_nan f.completed_at) then
        Sketch.add sk (f.completed_at -. f.start_time))
    (flows t);
  sk

let throughput_sketch t =
  let sk = Sketch.create () in
  List.iter
    (fun f ->
      match (stats_of_flow f).s_throughput with
      | Some tput -> Sketch.add sk tput
      | None -> ())
    (flows t);
  sk

let rtt_sketch t =
  let sk = Sketch.create () in
  List.iter (fun f -> Sketch.merge ~into:sk f.rtt) (flows t);
  sk

let fct_quantile t q = Sketch.quantile (fct_sketch t) q

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* Fixed key order and shortest round-trip floats: equal registries
   encode to equal bytes, which is what the online-vs-offline identity
   check (and CI's trace-analytics smoke) diffs. *)

let fj = function None -> "null" | Some f -> Json.float_repr f
let ij = function None -> "null" | Some n -> string_of_int n

let flow_json (s : stats) =
  Printf.sprintf
    "{\"conn\":%d,\"start_time\":%s,\"flow_size\":%s,\
     \"delivered_pkts\":%d,\"delivered_bytes\":%d,\"acked_pkts\":%d,\
     \"data_sends\":%d,\"retransmits\":%d,\"loss_events\":%d,\
     \"rtt_samples\":%d,\"rtt_min\":%s,\"rtt_mean\":%s,\"rtt_max\":%s,\
     \"rtt_p50\":%s,\"rtt_p99\":%s,\"cwnd_min\":%s,\"cwnd_max\":%s,\
     \"fct\":%s,\"throughput\":%s}"
    s.s_conn
    (Json.float_repr s.s_start_time)
    (ij s.s_flow_size) s.s_delivered_pkts s.s_delivered_bytes s.s_acked_pkts
    s.s_data_sends s.s_retransmits s.s_loss_events s.s_rtt_samples
    (fj s.s_rtt_min) (fj s.s_rtt_mean) (fj s.s_rtt_max) (fj s.s_rtt_p50)
    (fj s.s_rtt_p99) (fj s.s_cwnd_min) (fj s.s_cwnd_max) (fj s.s_fct)
    (fj s.s_throughput)

let aggregate_json t =
  let fs = flows t in
  let completed =
    List.length (List.filter (fun f -> not (Float.is_nan f.completed_at)) fs)
  in
  let sum get = List.fold_left (fun acc f -> acc + get f) 0 fs in
  let fct = fct_sketch t in
  let tput = throughput_sketch t in
  let rtt = rtt_sketch t in
  Printf.sprintf
    "{\"flows\":%d,\"completed\":%d,\"delivered_pkts\":%d,\
     \"delivered_bytes\":%d,\"data_sends\":%d,\"retransmits\":%d,\
     \"loss_events\":%d,\"jain\":%s,\"fct_p50\":%s,\"fct_p99\":%s,\
     \"throughput_p50\":%s,\"throughput_p99\":%s,\"rtt_p50\":%s,\
     \"rtt_p99\":%s}"
    (List.length fs) completed
    (sum (fun f -> f.delivered_pkts))
    (sum (fun f -> f.delivered_bytes))
    (sum (fun f -> f.data_sends))
    (sum (fun f -> f.retransmits))
    (sum (fun f -> f.loss_events))
    (fj (jain t))
    (fj (Sketch.quantile fct 0.5))
    (fj (Sketch.quantile fct 0.99))
    (fj (Sketch.quantile tput 0.5))
    (fj (Sketch.quantile tput 0.99))
    (fj (Sketch.quantile rtt 0.5))
    (fj (Sketch.quantile rtt 0.99))

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"flows\":[";
  List.iteri
    (fun i s ->
      Buffer.add_string buf (if i = 0 then "\n " else ",\n ");
      Buffer.add_string buf (flow_json s))
    (all t);
  Buffer.add_string buf "],\n\"aggregate\":";
  Buffer.add_string buf (aggregate_json t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
