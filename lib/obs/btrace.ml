(* Compact binary trace encoding.

   File layout: a 5-byte header ("NSBT" magic + version byte), then a
   flat sequence of records.  Every record is a tag byte followed by a
   tag-specific payload:

     0x00 string-def   varint sid, varint length, raw bytes
     0x01 link-def     varint link id, varint name sid, f64 bandwidth
     0x02 conn-def     varint conn id
     0x03 conn-meta    varint conn id, f64 start_time,
                       varint (flow_size + 1; 0 = infinite)   [since v2]
     0x10..0x19 event  varint64 zigzag(delta of Int64.bits_of_float t),
                       then the event payload below

   Integers are unsigned LEB128 varints (OCaml ints encode their 63-bit
   pattern, so even a negative field round-trips in <= 9 bytes); floats
   that must round-trip bit-exactly (cwnd, ssthresh, bandwidth) are raw
   little-endian IEEE bits.  Event times are monotone, so consecutive
   [bits_of_float] values are close and the zigzag delta usually fits a
   few bytes.

   Strings (link names, fault labels, loss reasons) are interned: the
   writer emits a string-def the first time a string appears and varint
   ids afterwards, so the steady-state hot path never copies a string.

   The writer appends records to one preallocated segment buffer and
   hands it to the sink only when full (or on [flush]) — zero
   formatting, zero per-event syscalls.  A recorder (the flight
   recorder) is the same writer without a sink: it keeps its last full
   segment and decodes both on a dump.

   The one decoder, [decode], checks bounds once per record: a record
   that starts [max_record] bytes or more before the end is read from
   the data unchecked, and the last few from a zero-padded copy of the
   tail, where a record that ends past the real end is torn.  It reports
   each record to an [observer], a record of callbacks that take ints
   and interned strings; the record's floats wait in a flat [cell], so
   no float crosses a call and decoding allocates nothing.  [iter] and
   [read] are observers that build items, which the exports render;
   [validate] and [Flowstats]' offline fold build none.  The decoder is
   torn-tolerant — a file cut mid-record (crash before the last flush)
   yields every complete record and a [Torn] note — and strict: bytes
   the writer never produces stop it with a [Corrupt] note. *)

let magic = "NSBT"

(* v2 added the conn-meta record (0x03); everything else is unchanged,
   so the reader accepts both versions. *)
let version = 2
let min_version = 1

let tag_string = 0x00
let tag_link = 0x01
let tag_conn = 0x02
let tag_conn_meta = 0x03
let tag_inject = 0x10
let tag_deliver = 0x11
let tag_enqueue = 0x12
let tag_drop = 0x13
let tag_depart = 0x14
let tag_fault = 0x15
let tag_send = 0x16
let tag_cwnd = 0x17
let tag_loss = 0x18
let tag_ack_tx = 0x19

(* ------------------------------------------------------------------ *)
(* Plain decoded data: copies, never live model objects                *)
(* ------------------------------------------------------------------ *)

type pkt = {
  id : int;
  conn : int;
  kind : Net.Packet.kind;
  seq : int;
  retransmit : bool;
  size : int;
}

(* The floats of the record a decoder reports, which its observer reads
   (see [observer] below); all-float, so they are stored flat. *)
type cell = {
  mutable time : float;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable bandwidth : float;
  mutable start_time : float;
}

type link = { link_id : int; link_name : string; bandwidth : float }

type ev =
  | Inject of pkt
  | Deliver of pkt
  | Enqueue of { link : link; pkt : pkt; qlen : int }
  | Drop of { link : link; pkt : pkt }
  | Depart of { link : link; pkt : pkt; qlen : int }
  | Fault of { link : link; label : string; pkt : pkt }
  | Send of { conn : int; pkt : pkt }
  | Cwnd of { conn : int; cwnd : float; ssthresh : float }
  | Loss of { conn : int; reason : string }
  | Ack_tx of { conn : int; ackno : int; delayed : bool; dup : bool }

type item =
  | Def_link of link
  | Def_conn of int
  | Def_conn_meta of { conn : int; start_time : float; flow_size : int option }
  | Event of float * ev

type file = { file_version : int; items : item list; torn : string option }

let ev_label = function
  | Inject _ -> "inject"
  | Deliver _ -> "deliver"
  | Enqueue _ -> "enqueue"
  | Drop _ -> "drop"
  | Depart _ -> "depart"
  | Fault _ -> "fault"
  | Send _ -> "send"
  | Cwnd _ -> "cwnd"
  | Loss _ -> "loss"
  | Ack_tx _ -> "ack_tx"

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* The writer's previous event time and the record's own, in a record
   of floats only, so storing them writes the floats flat; a float or
   int64 field of a mixed record would box a fresh copy on every event.
   (The decoder keeps its previous time boxed: it hands that box out.) *)
type clock = { mutable prev : float; mutable now : float }

(* A flight recorder's memory.  Its segments hold event records only,
   each segment's clock starting at 0; the keyframe holds the header
   and every def, so the keyframe followed by a segment is a trace on
   its own.  The spare is the last full segment. *)
type ring = {
  capacity : int;  (* the events a dump shows *)
  keyframe : Buffer.t;
  spare : Bytes.t;
  mutable spare_len : int;
  mutable spare_events : int;
  mutable live_from : int;  (* [events] when the live segment started *)
}

(* Where a full segment goes: to the sink, or into a recorder's spare. *)
type out = Sink of (string -> unit) | Ring of ring

type writer = {
  out : out;
  seg : Bytes.t;
  mutable pos : int;
  strings : (string, int) Hashtbl.t;
  mutable next_sid : int;
  clock : clock;
  mutable events : int;
}

let flush w =
  match w.out with
  | Sink sink when w.pos > 0 ->
    sink (Bytes.sub_string w.seg 0 w.pos);
    w.pos <- 0
  | Sink _ | Ring _ -> ()

(* Upper bound on one record's encoding, and on what the decoder reads
   of one before it ends or stops: the longest, a fault or a queue
   record, is a tag (1), a time varint (<= 10), a link id and a label
   or queue length (<= 9 each) and a packet (<= 37), 66 bytes.  [start]
   reserves this once per record, so the field writers below skip
   per-byte capacity checks — and segments always hand off at record
   boundaries, which keeps crash truncation record-aligned. *)
let max_record = 80

(* A recorder's segment has room for [capacity + 1] records of
   [max_record] bytes, so once full it holds more than [capacity]
   events: all a dump needs of the past.  It is copied into the spare,
   and the live segment starts over. *)
let restart w r =
  Bytes.blit w.seg 0 r.spare 0 w.pos;
  r.spare_len <- w.pos;
  r.spare_events <- w.events - r.live_from;
  r.live_from <- w.events;
  w.pos <- 0;
  w.clock.prev <- 0.

let spill w = match w.out with Sink _ -> flush w | Ring r -> restart w r
let[@inline] ensure w n = if w.pos + n > Bytes.length w.seg then spill w

(* Unchecked writers: callers must [ensure] the total first.  They
   thread [pos] as a value instead of re-reading the mutable field —
   without flambda, cross-call field loads/stores on every byte are a
   measurable share of the per-event cost; this way the encoder's
   position stays in a register across one record and [w.pos] is
   touched once per record. *)
let[@inline] put_byte seg pos b =
  Bytes.unsafe_set seg pos (Char.unsafe_chr (b land 0xff));
  pos + 1

let rec put_varint_loop seg pos n =
  if n land lnot 0x7f = 0 then put_byte seg pos n
  else
    put_varint_loop seg (put_byte seg pos ((n land 0x7f) lor 0x80)) (n lsr 7)

(* One- and two-byte varints, nearly every field of a record, are
   written inline; only longer ones take the loop.  The bytes are the
   loop's. *)
let[@inline] put_varint seg pos n =
  if n land lnot 0x7f = 0 then put_byte seg pos n
  else if n land lnot 0x3fff = 0 then
    put_byte seg (put_byte seg pos ((n land 0x7f) lor 0x80)) (n lsr 7)
  else put_varint_loop seg pos n

let put_f64 seg pos f =
  Bytes.set_int64_le seg pos (Int64.bits_of_float f);
  pos + 8

(* Defs: a file writer leaves each in its segment; a recorder moves it,
   written from [start] to [pos], to its keyframe. *)
let keep_def w start =
  match w.out with
  | Sink _ -> ()
  | Ring r ->
    Buffer.add_subbytes r.keyframe w.seg start (w.pos - start);
    w.pos <- start

(* A def's raw bytes, after its header went through [keep_def]. *)
let put_raw w s =
  match w.out with
  | Ring r -> Buffer.add_string r.keyframe s
  | Sink sink ->
    let len = String.length s in
    if w.pos + len > Bytes.length w.seg then flush w;
    if len > Bytes.length w.seg then sink s
    else begin
      Bytes.blit_string s 0 w.seg w.pos len;
      w.pos <- w.pos + len
    end

let make out seg =
  { out; seg; pos = 0; strings = Hashtbl.create 32; next_sid = 0;
    clock = { prev = 0.; now = 0. }; events = 0 }

let header_bytes = magic ^ String.make 1 (Char.chr version)

let writer ?(segment = 256 * 1024) sink =
  if segment < 2 * max_record then
    invalid_arg "Btrace.writer: segment too small";
  let w = make (Sink sink) (Bytes.create segment) in
  put_raw w header_bytes;
  w

let recorder capacity =
  if capacity < 1 then invalid_arg "Btrace.recorder: capacity must be >= 1";
  let segment = (capacity + 1) * max_record in
  let keyframe = Buffer.create 256 in
  Buffer.add_string keyframe header_bytes;
  make
    (Ring
       { capacity; keyframe; spare = Bytes.create segment; spare_len = 0;
         spare_events = 0; live_from = 0 })
    (Bytes.create segment)

let intern w s =
  match Hashtbl.find_opt w.strings s with
  | Some sid -> sid
  | None ->
    let sid = w.next_sid in
    w.next_sid <- sid + 1;
    Hashtbl.add w.strings s sid;
    ensure w 19;
    let start = w.pos in
    let pos = put_byte w.seg start tag_string in
    let pos = put_varint w.seg pos sid in
    w.pos <- put_varint w.seg pos (String.length s);
    keep_def w start;
    put_raw w s;
    sid

let declare_link w l =
  let name_sid = intern w (Net.Link.name l) in
  ensure w 27;
  let seg = w.seg and start = w.pos in
  let pos = put_byte seg start tag_link in
  let pos = put_varint seg pos (Net.Link.id l) in
  let pos = put_varint seg pos name_sid in
  w.pos <- put_f64 seg pos (Net.Link.bandwidth l);
  keep_def w start

let declare_conn_meta w conn ~start_time ~flow_size =
  ensure w 27;
  let seg = w.seg and start = w.pos in
  let pos = put_byte seg start tag_conn_meta in
  let pos = put_varint seg pos conn in
  let pos = put_f64 seg pos start_time in
  w.pos <-
    put_varint seg pos (match flow_size with None -> 0 | Some n -> n + 1);
  keep_def w start

(* The low 56 bits of [n] as 8 varint bytes that all continue. *)
let rec put_low56 seg pos n k =
  if k = 0 then pos
  else
    put_low56 seg (put_byte seg pos ((n land 0x7f) lor 0x80)) (n lsr 7) (k - 1)

(* Time deltas overwhelmingly fit a native int: consecutive event times
   share sign and exponent, so the bit deltas are small.  The native
   zigzag (sign bit is bit 62) produces the exact same bytes as the
   int64 zigzag for any delta in (-2^61, 2^61).  The first event (the
   clock starts at 0., as it does after each flight-recorder segment
   restart) and exponent-crossing jumps take the wide path: the int64
   zigzag's low 56 bits, then its top 8, each written as native ints,
   are the bytes of its varint.  Without flambda every Int64
   intermediate that escapes a function is a heap allocation; here the
   Int64s stay in registers and the clock stores a flat float, so a time
   stamp allocates nothing on either path. *)
let native_min = Int64.neg 0x2000000000000000L
let native_max = 0x2000000000000000L

let put_time w seg pos =
  let time = w.clock.now in
  let delta =
    Int64.sub (Int64.bits_of_float time) (Int64.bits_of_float w.clock.prev)
  in
  w.clock.prev <- time;
  if Int64.compare delta native_min > 0 && Int64.compare delta native_max < 0
  then begin
    let d = Int64.to_int delta in
    put_varint seg pos ((d lsl 1) lxor (d asr 62))
  end
  else begin
    let z =
      Int64.logxor (Int64.shift_left delta 1) (Int64.shift_right delta 63)
    in
    let low = Int64.to_int z land 0xff_ffff_ffff_ffff in
    match Int64.to_int (Int64.shift_right_logical z 56) with
    | 0 -> put_varint seg pos low
    | top -> put_varint seg (put_low56 seg pos low 8) top
  end

let put_pkt seg pos (p : Net.Packet.t) =
  let pos = put_varint seg pos p.id in
  let pos = put_varint seg pos p.conn in
  let pos =
    put_byte seg pos
      ((match p.kind with Net.Packet.Data -> 0 | Net.Packet.Ack -> 1)
      lor (if p.retransmit then 2 else 0))
  in
  let pos = put_varint seg pos p.seq in
  put_varint seg pos p.size

(* Every event record begins here: reserve [max_record] (after any
   string interning, since a string-def may have moved [pos]), count the
   record, and write its tag and time stamp.  Returns the payload
   position.  Inlined with the record writers, so a hook's time reaches
   the flat cell [put_time] reads unboxed. *)
let[@inline] start w tag time =
  ensure w max_record;
  w.events <- w.events + 1;
  w.clock.now <- time;
  put_time w w.seg (put_byte w.seg w.pos tag)

let[@inline] link_start w tag time link =
  put_varint w.seg (start w tag time) (Net.Link.id link)

let[@inline] conn_start w tag time conn =
  put_varint w.seg (start w tag time) conn

let[@inline] inject w ~time p =
  w.pos <- put_pkt w.seg (start w tag_inject time) p

let[@inline] deliver w ~time p =
  w.pos <- put_pkt w.seg (start w tag_deliver time) p

let[@inline] enqueue w ~time ~link ~pkt ~qlen =
  let pos = put_pkt w.seg (link_start w tag_enqueue time link) pkt in
  w.pos <- put_varint w.seg pos qlen

let[@inline] drop w ~time ~link ~pkt =
  w.pos <- put_pkt w.seg (link_start w tag_drop time link) pkt

let[@inline] depart w ~time ~link ~pkt ~qlen =
  let pos = put_pkt w.seg (link_start w tag_depart time link) pkt in
  w.pos <- put_varint w.seg pos qlen

let[@inline] fault w ~time ~link ~label ~pkt =
  let sid = intern w label in
  let pos = put_varint w.seg (link_start w tag_fault time link) sid in
  w.pos <- put_pkt w.seg pos pkt

let[@inline] send w ~time ~conn ~pkt =
  w.pos <- put_pkt w.seg (conn_start w tag_send time conn) pkt

let[@inline] cwnd w ~time ~conn ~cwnd ~ssthresh =
  let pos = put_f64 w.seg (conn_start w tag_cwnd time conn) cwnd in
  w.pos <- put_f64 w.seg pos ssthresh

let[@inline] loss w ~time ~conn ~reason =
  let sid = intern w reason in
  w.pos <- put_varint w.seg (conn_start w tag_loss time conn) sid

let[@inline] ack_tx w ~time ~conn ~ackno ~delayed ~dup =
  let pos = put_varint w.seg (conn_start w tag_ack_tx time conn) ackno in
  w.pos <-
    put_byte w.seg pos ((if delayed then 1 else 0) lor if dup then 2 else 0)

let events_written w = w.events

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type stop = Torn of string | Corrupt of string

(* Decoding stops at the first record it cannot take: [Out_of_data]
   when the bytes run out mid-record (a crash before the last flush),
   [Malformed] when the bytes hold something the writer never writes. *)
exception Out_of_data of string
exception Malformed of string

let header data =
  if String.length data < 5 || String.sub data 0 4 <> magic then
    Error "not a netsim binary trace (bad magic)"
  else
    let v = Char.code data.[4] in
    if v < min_version || v > version then
      Error
        (Printf.sprintf "unsupported binary trace version %d (expected %d..%d)"
           v min_version version)
    else Ok v

type observer = {
  on_link : int -> string -> unit;
  on_conn : int -> unit;
  on_conn_meta : int -> int -> unit;
  on_inject : int -> int -> int -> int -> int -> unit;
  on_deliver : int -> int -> int -> int -> int -> unit;
  on_enqueue : int -> int -> int -> int -> int -> int -> int -> unit;
  on_drop : int -> int -> int -> int -> int -> int -> unit;
  on_depart : int -> int -> int -> int -> int -> int -> int -> unit;
  on_fault : int -> string -> int -> int -> int -> int -> int -> unit;
  on_send : int -> int -> int -> int -> int -> int -> unit;
  on_cwnd : int -> unit;
  on_loss : int -> string -> unit;
  on_ack_tx : int -> int -> int -> unit;
}

let ignore_all =
  {
    on_link = (fun _ _ -> ());
    on_conn = (fun _ -> ());
    on_conn_meta = (fun _ _ -> ());
    on_inject = (fun _ _ _ _ _ -> ());
    on_deliver = (fun _ _ _ _ _ -> ());
    on_enqueue = (fun _ _ _ _ _ _ _ -> ());
    on_drop = (fun _ _ _ _ _ _ -> ());
    on_depart = (fun _ _ _ _ _ _ _ -> ());
    on_fault = (fun _ _ _ _ _ _ _ -> ());
    on_send = (fun _ _ _ _ _ _ -> ());
    on_cwnd = (fun _ -> ());
    on_loss = (fun _ _ -> ());
    on_ack_tx = (fun _ _ _ -> ());
  }

(* Ids the writer numbers from 0 (string ids, and the model's link ids)
   index an array, which grows to the largest id set below 1024; any
   other id, which only a foreign or corrupt trace holds, goes to a
   table.  A negative id fails [id lsr 10 = 0]. *)
type 'a ids = {
  mutable small : 'a array;
  large : 'a Engine.Int_tbl.t;
  absent : 'a;
}

let ids absent = { small = [||]; large = Engine.Int_tbl.create 1; absent }

let[@inline] find_id t id =
  if id lsr 10 = 0 then
    if id < Array.length t.small then Array.unsafe_get t.small id else t.absent
  else
    match Engine.Int_tbl.find t.large id with
    | v -> v
    | exception Not_found -> t.absent

let set_id t id v =
  if id lsr 10 = 0 then begin
    let n = Array.length t.small in
    if id >= n then begin
      let small = Array.make (max 8 (2 * id)) t.absent in
      Array.blit t.small 0 small 0 n;
      t.small <- small
    end;
    Array.unsafe_set t.small id v
  end
  else Engine.Int_tbl.replace t.large id v

(* The decode core: top-level functions over one cursor, not closures
   (without flambda, a local recursive function is a fresh closure on
   every call).  Bounds are checked once per record, in [step]: a record
   that starts [max_record] bytes or more before the end is read from
   the data itself, with no check per byte, and the records after that
   from [pad]'s copy of the rest, followed by [max_record] zero bytes.
   No record reads more than 66 bytes before it ends or stops, bar a
   string-def's string, which is checked against the real end first
   (varints stop at 9 bytes, times at 10).  A zero byte ends any
   varint, so a record cut by the end reads zeros and ends past [lim],
   and that makes it torn; so does any check that fails after reading
   past [lim]. *)
type cursor = {
  mutable src : string;  (* the data, or from [pad] on its padded tail *)
  mutable base : int;  (* where [src] starts in the data *)
  mutable lim : int;  (* the end of the data, in [src] *)
  mutable pos : int;  (* in [src] *)
  bits : Bytes.t;  (* the previous event time's [bits_of_float] *)
  cell : cell;
  strings : string option ids;
  links : bool ids;
  (* The packet of the record being decoded. *)
  mutable p_id : int;
  mutable p_conn : int;
  mutable p_flags : int;
  mutable p_seq : int;
  mutable p_size : int;
  mutable records : int;  (* complete records so far, string-defs too *)
  mutable stop : stop option;
}

let torn msg = raise (Out_of_data msg)

(* A failed check, [pos] being where reading got to: past [lim], the
   record was cut before the check could fail. *)
let corrupt c pos fmt =
  Printf.ksprintf
    (fun msg -> if pos > c.lim then torn "truncated" else raise (Malformed msg))
    fmt

let[@inline] byte c =
  let pos = c.pos in
  c.pos <- pos + 1;
  Char.code (String.unsafe_get c.src pos)

(* A varint's bytes after its first, which gave [acc]. *)
let rec varint_rest c acc shift =
  let b = byte c in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc
  else if shift >= 56 then corrupt c c.pos "varint too long"
  else varint_rest c acc (shift + 7)

let[@inline] varint c =
  let b = byte c in
  if b < 0x80 then b else varint_rest c (b land 0x7f) 7

(* The writer only writes ids it got from the model or numbered from 0,
   never negative. *)
let read_id c what =
  let id = varint c in
  if id < 0 then corrupt c c.pos "negative %s id %d" what id;
  id

let[@inline] read_f64 c what =
  let pos = c.pos in
  let x = Int64.float_of_bits (String.get_int64_le c.src pos) in
  c.pos <- pos + 8;
  if not (Float.is_finite x) then corrupt c c.pos "non-finite %s" what;
  x

let read_string c =
  let sid = varint c in
  match find_id c.strings sid with
  | Some s -> s
  | None -> corrupt c c.pos "undefined string id %d" sid

let read_link c =
  let id = varint c in
  if not (find_id c.links id) then corrupt c c.pos "undefined link id %d" id;
  id

let read_pkt c =
  c.p_id <- varint c;
  c.p_conn <- read_id c "conn";
  c.p_flags <- byte c land 3;
  c.p_seq <- varint c;
  c.p_size <- varint c

(* A new time: its bits are the previous time's plus [delta], and it
   must be finite. *)
let[@inline] add_time c delta =
  let bits = Int64.add (Bytes.get_int64_le c.bits 0) delta in
  let time = Int64.float_of_bits bits in
  if not (Float.is_finite time) then corrupt c c.pos "non-finite time";
  Bytes.set_int64_le c.bits 0 bits;
  c.cell.time <- time

(* A time delta's 9th and 10th bytes, after the first 8 gave [acc]: the
   zigzag's bits 56 to 63, unzigzagged in unboxed [Int64]s. *)
let time_wide c acc =
  let b = byte c in
  let z =
    Int64.logor (Int64.of_int acc)
      (Int64.shift_left (Int64.of_int (b land 0x7f)) 56)
  in
  let z =
    if b < 0x80 then z
    else begin
      let b = byte c in
      if b >= 0x80 then corrupt c c.pos "varint too long";
      Int64.logor z (Int64.shift_left (Int64.of_int b) 63)
    end
  in
  add_time c
    (Int64.logxor
       (Int64.shift_right_logical z 1)
       (Int64.neg (Int64.logand z 1L)))

(* Up to 8 bytes (56 bits) of the zigzag delta accumulate and unzigzag
   in a native int. *)
let rec time_rest c acc shift =
  let b = byte c in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then add_time c (Int64.of_int ((acc lsr 1) lxor -(acc land 1)))
  else if shift < 49 then time_rest c acc (shift + 7)
  else time_wide c acc

(* The mirror of [put_time], into [c.cell.time].  A zero delta (38% of
   the events of a fig-3 trace) leaves the time as it is. *)
let read_time c =
  let b = byte c in
  if b >= 0x80 then time_rest c (b land 0x7f) 7
  else if b <> 0 then add_time c (Int64.of_int ((b lsr 1) lxor -(b land 1)))

let end_record c = if c.pos > c.lim then torn "truncated"

let read_event c o tag =
  read_time c;
  match tag with
  | 0x10 (* tag_inject *) ->
    read_pkt c;
    end_record c;
    o.on_inject c.p_id c.p_conn c.p_flags c.p_seq c.p_size
  | 0x11 (* tag_deliver *) ->
    read_pkt c;
    end_record c;
    o.on_deliver c.p_id c.p_conn c.p_flags c.p_seq c.p_size
  | 0x12 (* tag_enqueue *) ->
    let link = read_link c in
    read_pkt c;
    let qlen = varint c in
    end_record c;
    o.on_enqueue link c.p_id c.p_conn c.p_flags c.p_seq c.p_size qlen
  | 0x13 (* tag_drop *) ->
    let link = read_link c in
    read_pkt c;
    end_record c;
    o.on_drop link c.p_id c.p_conn c.p_flags c.p_seq c.p_size
  | 0x14 (* tag_depart *) ->
    let link = read_link c in
    read_pkt c;
    let qlen = varint c in
    end_record c;
    o.on_depart link c.p_id c.p_conn c.p_flags c.p_seq c.p_size qlen
  | 0x15 (* tag_fault *) ->
    let link = read_link c in
    let label = read_string c in
    read_pkt c;
    end_record c;
    o.on_fault link label c.p_id c.p_conn c.p_flags c.p_seq c.p_size
  | 0x16 (* tag_send *) ->
    let conn = read_id c "conn" in
    read_pkt c;
    end_record c;
    o.on_send conn c.p_id c.p_conn c.p_flags c.p_seq c.p_size
  | 0x17 (* tag_cwnd *) ->
    let conn = read_id c "conn" in
    let cwnd = read_f64 c "cwnd" in
    let ssthresh = read_f64 c "ssthresh" in
    end_record c;
    c.cell.cwnd <- cwnd;
    c.cell.ssthresh <- ssthresh;
    o.on_cwnd conn
  | 0x18 (* tag_loss *) ->
    let conn = read_id c "conn" in
    let reason = read_string c in
    end_record c;
    o.on_loss conn reason
  | _ ->
    (* [record] lets only event tags through: this is [tag_ack_tx]. *)
    let conn = read_id c "conn" in
    let ackno = varint c in
    let flags = byte c land 3 in
    end_record c;
    o.on_ack_tx conn ackno flags

(* One whole record, reported to [o] once every byte decoded; a
   string-def only fills the table. *)
let record c o =
  let tag = byte c in
  if tag >= tag_inject && tag <= tag_ack_tx then read_event c o tag
  else if tag = tag_string then begin
    let sid = read_id c "string" in
    let len = varint c in
    if len < 0 then corrupt c c.pos "negative string length %d" len;
    end_record c;
    if len > c.lim - c.pos then torn "truncated string";
    set_id c.strings sid (Some (String.sub c.src c.pos len));
    c.pos <- c.pos + len
  end
  else if tag = tag_link then begin
    let id = read_id c "link" in
    let name = read_string c in
    let bandwidth = read_f64 c "bandwidth" in
    end_record c;
    set_id c.links id true;
    c.cell.bandwidth <- bandwidth;
    o.on_link id name
  end
  else if tag = tag_conn then begin
    let conn = read_id c "conn" in
    end_record c;
    o.on_conn conn
  end
  else if tag = tag_conn_meta then begin
    let conn = read_id c "conn" in
    let start_time = read_f64 c "start time" in
    let size = varint c in
    end_record c;
    c.cell.start_time <- start_time;
    o.on_conn_meta conn size
  end
  else corrupt c c.pos "unknown record tag 0x%02x" tag

(* From the current record on, read a copy of the rest of the data with
   [max_record] zero bytes after it. *)
let pad c =
  let rest = c.lim - c.pos in
  let tail = Bytes.make (rest + max_record) '\000' in
  Bytes.blit_string c.src c.pos tail 0 rest;
  c.src <- Bytes.unsafe_to_string tail;
  c.base <- c.base + c.pos;
  c.lim <- rest;
  c.pos <- 0

let note kind start msg count =
  Printf.sprintf "%s record at byte %d: %s (%d complete records recovered)" kind
    start msg count

(* Decode the next record and report it to [o]: [false] at the end of
   the data and from the first torn or corrupt record on, which leaves
   its note in [c.stop]. *)
let step c o =
  Option.is_none c.stop
  && c.pos < c.lim
  &&
  (if c.pos > String.length c.src - max_record then pad c;
   let start = c.pos in
   match record c o with
   | () ->
     c.records <- c.records + 1;
     true
   | exception Out_of_data msg ->
     c.stop <- Some (Torn (note "torn" (c.base + start) msg c.records));
     false
   | exception Malformed msg ->
     c.stop <- Some (Corrupt (note "corrupt" (c.base + start) msg c.records));
     false)

let cursor data =
  Result.map
    (fun file_version ->
      ( file_version,
        {
          src = data;
          base = 0;
          lim = String.length data;
          pos = 5;
          bits = Bytes.make 8 '\000';
          cell =
            { time = 0.; cwnd = 0.; ssthresh = 0.; bandwidth = 0.;
              start_time = 0. };
          strings = ids None;
          links = ids false;
          p_id = 0;
          p_conn = 0;
          p_flags = 0;
          p_seq = 0;
          p_size = 0;
          records = 0;
          stop = None;
        } ))
    (header data)

let decode data observe =
  match cursor data with
  | Error msg -> Error msg
  | Ok (file_version, c) ->
    let o = observe c.cell in
    while step c o do () done;
    Ok (file_version, c.stop)

(* ------------------------------------------------------------------ *)
(* Items: the plain values, built by an observer                       *)
(* ------------------------------------------------------------------ *)

(* Consecutive records mostly carry the same packet (its enqueue,
   departure and delivery), or one of the few in flight.  A
   direct-mapped cache indexed by [id land (pkt_slots - 1)] lets 8 slots
   share 77% of the packets of a fig-3 trace; 64 reach the ceiling of
   88% (a packet's first record always misses).  A [read] list keeps
   every packet it does not share, so 64 slots hold 2.3 MB less of the
   1000 s fig-3 trace's list than 8; a streaming reader keeps none, and
   pays for the young packets the cache holds, which every minor
   collection promotes: 0.6 MB more peak RSS on the 3600 s trace. *)
let pkt_slots = 64

(* Never matches a decoded packet: conn ids decode non-negative. *)
let no_pkt =
  { id = 0; conn = -1; kind = Net.Packet.Data; seq = 0; retransmit = false;
    size = 0 }

let no_link = { link_id = -1; link_name = ""; bandwidth = 0. }

(* What an item builder keeps.  Decoded values are immutable, so a
   packet or a time that repeats a recent one is handed out again rather
   than copied. *)
type builder = {
  cell : cell;
  emit : item -> unit;
  mutable last : float;  (* boxed: every event at this time shares it *)
  pkts : pkt array;  (* the last packet built in each slot *)
  links : link ids;
}

(* The time of [b.cell], as the box the previous event's time is in if
   it has the same bits, else as one new box. *)
let[@inline] time b =
  let t = b.cell.time and last = b.last in
  if t = last && (t <> 0. || Float.sign_bit t = Float.sign_bit last) then last
  else begin
    b.last <- t;
    b.last
  end

(* The packet in [id]'s cache slot when all six fields match, else a
   fresh one, which takes the slot. *)
let pkt b id conn flags seq size =
  let kind = if flags land 1 = 0 then Net.Packet.Data else Net.Packet.Ack in
  let retransmit = flags land 2 <> 0 in
  let slot = id land (pkt_slots - 1) in
  let p = Array.unsafe_get b.pkts slot in
  if p.id = id && p.conn = conn && p.kind = kind && p.seq = seq
     && p.retransmit = retransmit && p.size = size
  then p
  else begin
    let p = { id; conn; kind; seq; retransmit; size } in
    Array.unsafe_set b.pkts slot p;
    p
  end

let event b ev = b.emit (Event (time b, ev))

(* The observer that hands [emit] each record as its item. *)
let items emit cell =
  let b =
    { cell; emit; last = 0.; pkts = Array.make pkt_slots no_pkt;
      links = ids no_link }
  in
  {
    on_link =
      (fun link_id link_name ->
        let l = { link_id; link_name; bandwidth = cell.bandwidth } in
        set_id b.links link_id l;
        emit (Def_link l));
    on_conn = (fun conn -> emit (Def_conn conn));
    on_conn_meta =
      (fun conn size ->
        emit
          (Def_conn_meta
             { conn; start_time = cell.start_time;
               flow_size = (if size = 0 then None else Some (size - 1)) }));
    on_inject =
      (fun id conn flags seq size ->
        event b (Inject (pkt b id conn flags seq size)));
    on_deliver =
      (fun id conn flags seq size ->
        event b (Deliver (pkt b id conn flags seq size)));
    on_enqueue =
      (fun link id conn flags seq size qlen ->
        let link = find_id b.links link in
        event b (Enqueue { link; pkt = pkt b id conn flags seq size; qlen }));
    on_drop =
      (fun link id conn flags seq size ->
        let link = find_id b.links link in
        event b (Drop { link; pkt = pkt b id conn flags seq size }));
    on_depart =
      (fun link id conn flags seq size qlen ->
        let link = find_id b.links link in
        event b (Depart { link; pkt = pkt b id conn flags seq size; qlen }));
    on_fault =
      (fun link label id conn flags seq size ->
        let link = find_id b.links link in
        event b (Fault { link; label; pkt = pkt b id conn flags seq size }));
    on_send =
      (fun conn id pconn flags seq size ->
        event b (Send { conn; pkt = pkt b id pconn flags seq size }));
    on_cwnd =
      (fun conn ->
        event b (Cwnd { conn; cwnd = cell.cwnd; ssthresh = cell.ssthresh }));
    on_loss = (fun conn reason -> event b (Loss { conn; reason }));
    on_ack_tx =
      (fun conn ackno flags ->
        let delayed = flags land 1 <> 0 and dup = flags land 2 <> 0 in
        event b (Ack_tx { conn; ackno; delayed; dup }));
  }

let iter data f = decode data (items f)

(* The item [step] just built, if it built one. *)
type slot = { mutable item : item; mutable fresh : bool }

let next c o s =
  s.fresh <- false;
  while (not s.fresh) && step c o do () done;
  s.fresh

(* Tail-modulo-cons: each cell is allocated in stream order and its tail
   filled in by the next call, so there is no reversed copy to build. *)
let[@tail_mod_cons] rec item_list c o s =
  if next c o s then
    let item = s.item in
    item :: item_list c o s
  else []

let read data =
  Result.map
    (fun (file_version, (c : cursor)) ->
      let s = { item = Def_conn 0; fresh = false } in
      let o =
        items
          (fun item ->
            s.item <- item;
            s.fresh <- true)
          c.cell
      in
      let items = item_list c o s in
      let torn = Option.map (function Torn m | Corrupt m -> m) c.stop in
      { file_version; items; torn })
    (cursor data)

(* ------------------------------------------------------------------ *)
(* Offline formatters                                                  *)
(* ------------------------------------------------------------------ *)

(* The JSONL renderer runs once per trace event, so it appends to a
   buffer without [Printf]'s per-call format interpretation, and writes
   ints as digits. *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n < 0 then Buffer.add_string buf (Int.to_string n) else add_digits buf n

let add_bool buf b = Buffer.add_string buf (if b then "true" else "false")

let add_pkt buf (p : pkt) =
  Buffer.add_string buf ",\"id\":";
  add_int buf p.id;
  Buffer.add_string buf ",\"conn\":";
  add_int buf p.conn;
  Buffer.add_string buf ",\"kind\":\"";
  Buffer.add_string buf (Net.Packet.kind_to_string p.kind);
  Buffer.add_string buf "\",\"seq\":";
  add_int buf p.seq;
  if p.retransmit then Buffer.add_string buf ",\"rexmt\":true"

(* A link's rendered [,"link":"..."] field. *)
let link_field (l : link) = ",\"link\":\"" ^ Json.escape l.link_name ^ "\""

(* One JSONL object, no newline; [link] renders a link's field. *)
let add_jsonl buf ~link ~time ev =
  Buffer.add_string buf "{\"t\":";
  Buffer.add_string buf (Json.float_repr time);
  Buffer.add_string buf ",\"ev\":\"";
  Buffer.add_string buf (ev_label ev);
  Buffer.add_char buf '"';
  (match ev with
   | Inject p | Deliver p -> add_pkt buf p
   | Enqueue { link = l; pkt; qlen } | Depart { link = l; pkt; qlen } ->
     Buffer.add_string buf (link l);
     add_pkt buf pkt;
     Buffer.add_string buf ",\"qlen\":";
     add_int buf qlen
   | Drop { link = l; pkt } ->
     Buffer.add_string buf (link l);
     add_pkt buf pkt
   | Fault { link = l; label; pkt } ->
     Buffer.add_string buf (link l);
     Buffer.add_string buf ",\"fault\":\"";
     Buffer.add_string buf (Json.escape label);
     Buffer.add_char buf '"';
     add_pkt buf pkt
   | Send { conn = _; pkt } -> add_pkt buf pkt
   | Cwnd { conn; cwnd; ssthresh } ->
     Buffer.add_string buf ",\"conn\":";
     add_int buf conn;
     Buffer.add_string buf ",\"cwnd\":";
     Buffer.add_string buf (Json.float_repr cwnd);
     Buffer.add_string buf ",\"ssthresh\":";
     Buffer.add_string buf (Json.float_repr ssthresh)
   | Loss { conn; reason } ->
     Buffer.add_string buf ",\"conn\":";
     add_int buf conn;
     Buffer.add_string buf ",\"reason\":\"";
     Buffer.add_string buf (Json.escape reason);
     Buffer.add_char buf '"'
   | Ack_tx { conn; ackno; delayed; dup } ->
     Buffer.add_string buf ",\"conn\":";
     add_int buf conn;
     Buffer.add_string buf ",\"ackno\":";
     add_int buf ackno;
     Buffer.add_string buf ",\"delayed\":";
     add_bool buf delayed;
     Buffer.add_string buf ",\"dup\":";
     add_bool buf dup);
  Buffer.add_char buf '}'

(* One buffer for every line, handed to [sink] with its newline; each
   link's field is rendered once, when its def is read.  The first
   [skip] events are decoded but not rendered. *)
let jsonl_after ~skip data sink =
  let buf = Buffer.create 128 in
  let fields = Engine.Int_tbl.create 8 in
  let link (l : link) = Engine.Int_tbl.find fields l.link_id in
  let skip = ref skip in
  iter data (function
    | Def_link l -> Engine.Int_tbl.replace fields l.link_id (link_field l)
    | Def_conn _ | Def_conn_meta _ -> ()
    | Event _ when !skip > 0 -> decr skip
    | Event (time, ev) ->
      Buffer.clear buf;
      add_jsonl buf ~link ~time ev;
      Buffer.add_char buf '\n';
      sink (Buffer.contents buf))

let export_jsonl data sink = jsonl_after ~skip:0 data sink

(* The spare's events, then the live segment's, each segment decoded
   after the keyframe: the last [shown] of them are the last [shown]
   written. *)
let recent_jsonl w sink =
  match w.out with
  | Sink _ -> invalid_arg "Btrace.recent_jsonl: not a recorder"
  | Ring r ->
    let shown = min r.capacity w.events in
    let skip = r.spare_events + (w.events - r.live_from) - shown in
    let render ~skip seg len =
      let data = Buffer.contents r.keyframe ^ Bytes.sub_string seg 0 len in
      ignore (jsonl_after ~skip data sink : _ result)
    in
    if skip < r.spare_events then render ~skip r.spare r.spare_len;
    render ~skip:(max 0 (skip - r.spare_events)) w.seg w.pos;
    shown

(* Chrome trace_event rendering: one process, one thread ("track" in
   Perfetto) per link and per connection; counter tracks (queue depth,
   cwnd) get their own lanes from their event names.  The output must
   stay byte-identical to what the old online chrome sink produced.
   Like the JSONL export, every record is rendered into one reused
   buffer and handed to the sink with its leading separator; each
   link's name is escaped once, at its def, and times are spelled by
   the runtime formatter [Printf]'s %.3f ends in. *)

let link_tid (l : link) = 2 + l.link_id
let conn_tid conn = 1001 + conn

external format_float : string -> float -> string = "caml_format_float"

(* [time] in microseconds, as %.3f. *)
let add_us buf time = Buffer.add_string buf (format_float "%.3f" (1e6 *. time))

let add_pkt_name buf (p : pkt) =
  Buffer.add_string buf (Net.Packet.kind_to_string p.kind);
  Buffer.add_string buf " seq=";
  add_int buf p.seq;
  if p.retransmit then Buffer.add_string buf " rexmt"

let export_chrome data sink =
  match header data with
  | Error msg -> Error msg
  | Ok _ ->
    sink
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
       {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
       \"args\":{\"name\":\"netsim\"}}";
    let buf = Buffer.create 256 in
    let link_names = Engine.Int_tbl.create 8 in
    (* Every record follows the process record and opens with its name,
       which the caller appends; the closers below finish and emit it. *)
    let open_record () =
      Buffer.clear buf;
      Buffer.add_string buf ",\n{\"name\":\""
    in
    let emit () = sink (Buffer.contents buf) in
    let thread_name ~tid =
      open_record ();
      Buffer.add_string buf "thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
      add_int buf tid;
      Buffer.add_string buf ",\"args\":{\"name\":\""
    in
    let close_thread_name () =
      Buffer.add_string buf "\"}}";
      emit ()
    in
    let close_instant ~time ~tid =
      Buffer.add_string buf "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      add_us buf time;
      Buffer.add_string buf ",\"pid\":1,\"tid\":";
      add_int buf tid;
      Buffer.add_char buf '}';
      emit ()
    in
    (* An instant named [prefix] and a packet. *)
    let instant_pkt ~time ~tid prefix p =
      open_record ();
      Buffer.add_string buf prefix;
      add_pkt_name buf p;
      close_instant ~time ~tid
    in
    (* A counter's fields up to its args, which the caller appends. *)
    let counter_args ~time =
      Buffer.add_string buf "\",\"ph\":\"C\",\"ts\":";
      add_us buf time;
      Buffer.add_string buf ",\"pid\":1,\"args\":{"
    in
    let queue_counter ~time (l : link) qlen =
      open_record ();
      Buffer.add_string buf "queue ";
      Buffer.add_string buf (Engine.Int_tbl.find link_names l.link_id);
      counter_args ~time;
      Buffer.add_string buf "\"packets\":";
      add_int buf qlen;
      Buffer.add_string buf "}}";
      emit ()
    in
    let result =
      iter data (function
        | Def_link l ->
          let name = Json.escape l.link_name in
          Engine.Int_tbl.replace link_names l.link_id name;
          thread_name ~tid:(link_tid l);
          Buffer.add_string buf "link ";
          Buffer.add_string buf name;
          close_thread_name ()
        | Def_conn c | Def_conn_meta { conn = c; _ } ->
          thread_name ~tid:(conn_tid c);
          Buffer.add_string buf "conn ";
          add_int buf c;
          close_thread_name ()
        | Event (time, ev) -> (
          match ev with
          | Inject p -> instant_pkt ~time ~tid:(conn_tid p.conn) "inject " p
          | Deliver p -> instant_pkt ~time ~tid:(conn_tid p.conn) "deliver " p
          | Enqueue { link; pkt = _; qlen } -> queue_counter ~time link qlen
          | Drop { link; pkt } ->
            instant_pkt ~time ~tid:(link_tid link) "drop " pkt
          | Depart { link; pkt; qlen } ->
            (* The departure marks the end of serialization: render the
               whole serialization interval as a complete ("X") slice on
               the link's track, so Perfetto shows the transmitter's duty
               cycle directly. *)
            let tx =
              if link.bandwidth > 0. then
                8. *. float_of_int pkt.size /. link.bandwidth
              else 0.
            in
            open_record ();
            add_pkt_name buf pkt;
            Buffer.add_string buf "\",\"ph\":\"X\",\"ts\":";
            add_us buf (time -. tx);
            Buffer.add_string buf ",\"dur\":";
            add_us buf tx;
            Buffer.add_string buf ",\"pid\":1,\"tid\":";
            add_int buf (link_tid link);
            Buffer.add_string buf ",\"args\":{\"conn\":";
            add_int buf pkt.conn;
            Buffer.add_string buf ",\"seq\":";
            add_int buf pkt.seq;
            Buffer.add_string buf ",\"id\":";
            add_int buf pkt.id;
            Buffer.add_string buf "}}";
            emit ();
            queue_counter ~time link qlen
          | Fault { link; label; pkt } ->
            open_record ();
            Buffer.add_string buf "fault:";
            Buffer.add_string buf (Json.escape label);
            Buffer.add_char buf ' ';
            add_pkt_name buf pkt;
            close_instant ~time ~tid:(link_tid link)
          | Send { conn; pkt } ->
            instant_pkt ~time ~tid:(conn_tid conn) "send " pkt
          | Cwnd { conn; cwnd; ssthresh } ->
            open_record ();
            Buffer.add_string buf "cwnd conn-";
            add_int buf conn;
            counter_args ~time;
            Buffer.add_string buf "\"cwnd\":";
            Buffer.add_string buf (Json.float_repr cwnd);
            Buffer.add_string buf ",\"ssthresh\":";
            Buffer.add_string buf (Json.float_repr ssthresh);
            Buffer.add_string buf "}}";
            emit ()
          | Loss { conn; reason } ->
            open_record ();
            Buffer.add_string buf "loss:";
            Buffer.add_string buf (Json.escape reason);
            close_instant ~time ~tid:(conn_tid conn)
          | Ack_tx { conn; ackno; delayed; dup } ->
            open_record ();
            Buffer.add_string buf "ack ";
            add_int buf ackno;
            if delayed then Buffer.add_string buf " delayed";
            if dup then Buffer.add_string buf " dup";
            close_instant ~time ~tid:(conn_tid conn)))
    in
    sink "\n]}\n";
    result

(* ------------------------------------------------------------------ *)
(* Validation (tracecheck on the binary directly)                      *)
(* ------------------------------------------------------------------ *)

type audit = {
  audit_version : int;
  audit_events : int;
  audit_links : int;
  audit_conns : int;
  audit_torn : string option;
  audit_errors : string list;
}

(* Audit inside the decoder's walk: every event must reference a
   declared connection (link and string references, ids and floats are
   enforced by the decoder itself — a violation stops the walk with a
   [Corrupt] note), and event times must be non-decreasing.  A torn tail
   from a plain truncation is reported but is not an error (crash traces
   are valid prefixes); a corrupt record is.  It builds no items. *)
let validate data =
  let conns = Engine.Int_tbl.create 8 in
  let links = ref 0 in
  let events = ref 0 in
  let missing = Engine.Int_tbl.create 8 in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let clock = { prev = neg_infinity; now = 0. } in
  let declare conn = Engine.Int_tbl.replace conns conn () in
  let audit (cell : cell) =
    let event label conn =
      incr events;
      let time = cell.time in
      if not (Engine.Int_tbl.mem conns conn)
         && not (Engine.Int_tbl.mem missing conn)
      then begin
        Engine.Int_tbl.add missing conn ();
        err "event %d (%s at t=%s) references undeclared conn %d" !events
          label (Json.float_repr time) conn
      end;
      if time < clock.prev then
        err "time goes backwards at event %d: %s -> %s" !events
          (Json.float_repr clock.prev)
          (Json.float_repr time);
      clock.prev <- time
    in
    {
      on_link = (fun _ _ -> incr links);
      on_conn = declare;
      on_conn_meta = (fun conn _ -> declare conn);
      on_inject = (fun _ conn _ _ _ -> event "inject" conn);
      on_deliver = (fun _ conn _ _ _ -> event "deliver" conn);
      on_enqueue = (fun _ _ conn _ _ _ _ -> event "enqueue" conn);
      on_drop = (fun _ _ conn _ _ _ -> event "drop" conn);
      on_depart = (fun _ _ conn _ _ _ _ -> event "depart" conn);
      on_fault = (fun _ _ _ conn _ _ _ -> event "fault" conn);
      on_send = (fun conn _ _ _ _ _ -> event "send" conn);
      on_cwnd = event "cwnd";
      on_loss = (fun conn _ -> event "loss" conn);
      on_ack_tx = (fun conn _ _ -> event "ack_tx" conn);
    }
  in
  Result.map
    (fun (audit_version, stop) ->
      let audit_torn =
        match stop with
        | Some (Torn msg) -> Some msg
        | Some (Corrupt msg) ->
          err "%s" msg;
          None
        | None -> None
      in
      {
        audit_version;
        audit_events = !events;
        audit_links = !links;
        audit_conns = Engine.Int_tbl.length conns;
        audit_torn;
        audit_errors = List.rev !errors;
      })
    (decode data audit)
