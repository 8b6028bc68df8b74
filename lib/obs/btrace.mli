(** Compact binary trace format: the one trace event type ({!ev}), the
    writer the {!Probe} hooks call, the one decoder ({!decode}) every
    reader runs, reporting each record to an {!observer}, and the
    JSONL / Chrome-trace formatters.

    {2 Format (version 2)}

    A file is a 5-byte header — the magic bytes ["NSBT"] and one
    version byte — followed by a flat sequence of records.  Each record
    is a tag byte and a tag-specific payload:

    {v
    0x00 string-def   varint sid, varint length, raw bytes
    0x01 link-def     varint link id, varint name sid, f64 bandwidth
    0x02 conn-def     varint conn id
    0x03 conn-meta    varint conn id, f64 start_time,
                      varint (flow_size + 1; 0 = infinite)   [since v2]
    0x10-0x19 event   varint64 zigzag(delta of bits_of_float time),
                      then event-specific fields
    v}

    Version 2 added the conn-meta record so offline analytics can
    recover per-flow start times and sizes; version-1 files remain
    readable.

    Integers are unsigned LEB128 varints; floats that must survive
    bit-exactly (times, cwnd, ssthresh, bandwidth) travel as IEEE-754
    bits, never decimal text.  Strings are interned via string-def
    records, so the steady-state event path writes only small ints.

    The {!writer} batches records into one preallocated segment buffer
    handed to the sink only when full or on {!flush}: zero formatting
    and zero per-event syscalls on the hot path.  {!decode} is
    torn-tolerant — a file cut mid-record (crash before the final
    flush) yields every complete record plus a note describing the torn
    tail — and strict: it stops at the first record the writer cannot
    produce and says so (see {!stop}).  It checks bounds once per
    record, not per byte, and reports each record to an {!observer} as
    ints and interned strings, its floats in a {!cell}, allocating
    nothing itself; {!iter} and {!read} are observers that build
    {!item}s. *)

val magic : string
val version : int

(** Oldest file version {!decode} still accepts. *)
val min_version : int

(** {2 Decoded plain data}

    Decoded events carry copies, never live model objects.  A link is
    its identity: [link_id] doubles as the Perfetto track id,
    [bandwidth] reconstructs departure slice durations offline.

    The values are immutable, and {!iter} and {!read} hand out one
    value where records repeat one: items may share a physically equal
    [pkt] (the same packet's enqueue, departure and delivery), time or
    [link].  Compare them with [=], never with [==]. *)

type pkt = {
  id : int;
  conn : int;
  kind : Net.Packet.kind;
  seq : int;
  retransmit : bool;
  size : int;
}

type link = { link_id : int; link_name : string; bandwidth : float }

type ev =
  | Inject of pkt
  | Deliver of pkt
  | Enqueue of { link : link; pkt : pkt; qlen : int }
  | Drop of { link : link; pkt : pkt }
  | Depart of { link : link; pkt : pkt; qlen : int }
      (** serialization finished; [qlen] is the post-departure occupancy *)
  | Fault of { link : link; label : string; pkt : pkt }
  | Send of { conn : int; pkt : pkt }
  | Cwnd of { conn : int; cwnd : float; ssthresh : float }
  | Loss of { conn : int; reason : string }  (** ["timeout"] / ["dup_ack"] *)
  | Ack_tx of { conn : int; ackno : int; delayed : bool; dup : bool }

type item =
  | Def_link of link
  | Def_conn of int
  | Def_conn_meta of { conn : int; start_time : float; flow_size : int option }
  | Event of float * ev

type file = {
  file_version : int;
  items : item list;  (** complete records, in stream order *)
  torn : string option;
      (** the note of the {!stop}, if decoding stopped before the end
          of the data (all preceding complete records are in [items]) *)
}

(** Why {!decode} stopped before the end of the data; every record before
    the stop was delivered.  Each carries a note naming the byte offset
    and the count of complete records. *)
type stop =
  | Torn of string
      (** the data ends mid-record — a crash before the final flush; the
          prefix is a valid trace *)
  | Corrupt of string
      (** a record the writer cannot produce: an unknown tag, an
          undefined string or link id, a negative conn, link or string
          id, a non-finite float or an over-long varint *)

(** Short event-kind tag, e.g. ["enqueue"]; the JSONL ["ev"] value. *)
val ev_label : ev -> string

(** {2 Writer} *)

type writer

(** [writer sink] starts a binary stream: the header bytes go into the
    segment immediately, records follow.  [segment] is the batch size
    in bytes (default 256 KiB).
    @raise Invalid_argument if [segment] is under two records' worth
    (160 bytes). *)
val writer : ?segment:int -> (string -> unit) -> writer

(** [recorder n] is a flight recorder: a writer without a sink that
    keeps its latest records in memory, at least the last [n] events,
    for {!recent_jsonl}.  It records with the file writer's code, so it
    allocates no more per record.  Its two segments, the live one and a
    spare, have room for [n + 1] records each and hold events only; the
    header and every def sit once in a keyframe.  A full segment is
    copied into the spare and the live one starts over, its clock at 0,
    so the keyframe and either segment decode on their own.
    @raise Invalid_argument if [n < 1]. *)
val recorder : int -> writer

(** Emit a link-def (and its name's string-def on first sight).  Must
    precede the link's events in the stream. *)
val declare_link : writer -> Net.Link.t -> unit

(** Conn-def plus flow metadata (start time, sized-flow length in
    packets, [None] = infinite): one 0x03 record.  The reader also takes
    a bare conn-def (0x02, no metadata), which version-1 files carry. *)
val declare_conn_meta :
  writer -> int -> start_time:float -> flow_size:int option -> unit

(** {3 Event records}

    One function per event kind, called straight from the model's hooks
    with the live values they receive; each appends one record stamped
    [time] (the hook's [Sim.now]) to the segment buffer.  Live packets
    and links are read only during the call. *)

val inject : writer -> time:float -> Net.Packet.t -> unit
val deliver : writer -> time:float -> Net.Packet.t -> unit

val enqueue :
  writer -> time:float -> link:Net.Link.t -> pkt:Net.Packet.t -> qlen:int ->
  unit

val drop : writer -> time:float -> link:Net.Link.t -> pkt:Net.Packet.t -> unit

val depart :
  writer -> time:float -> link:Net.Link.t -> pkt:Net.Packet.t -> qlen:int ->
  unit

val fault :
  writer -> time:float -> link:Net.Link.t -> label:string ->
  pkt:Net.Packet.t -> unit

val send : writer -> time:float -> conn:int -> pkt:Net.Packet.t -> unit

val cwnd :
  writer -> time:float -> conn:int -> cwnd:float -> ssthresh:float -> unit

val loss : writer -> time:float -> conn:int -> reason:string -> unit

val ack_tx :
  writer -> time:float -> conn:int -> ackno:int -> delayed:bool -> dup:bool ->
  unit

(** Event records written so far (defs not included). *)
val events_written : writer -> int

(** Hand buffered bytes to the sink.  Call on every exit path (the
    writer never flushes on its own except when a segment fills).  A
    {!recorder} has no sink: it keeps its records. *)
val flush : writer -> unit

(** {2 Decoder}

    One decode core reads every trace.  It walks the records in stream
    order and reports each complete one to an {!observer}, a record of
    callbacks in this format's vocabulary: ints (ids, packet fields,
    queue lengths) and interned strings, no allocated value per record.
    The record's floats are not arguments, since a float passed to a
    closure is boxed; the decoder stores them in a {!cell} the observer
    reads during its callback.  String-defs are resolved, not reported:
    a fault label or loss reason arrives as its string, and a link as
    its id, after the link-def that {!observer.on_link} reported.

    A packet is five ints, [id conn flags seq size], where bit 0 of
    [flags] is set for an ACK ({!Net.Packet.Ack}) and bit 1 for a
    retransmission. *)

(** The floats of the record being reported, valid during its callback:
    [time] for every event, [cwnd] and [ssthresh] for
    {!observer.on_cwnd}, [bandwidth] (bits per second) for
    {!observer.on_link}, [start_time] for {!observer.on_conn_meta}.  All
    fields are floats, so the record holds them unboxed. *)
type cell = private {
  mutable time : float;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable bandwidth : float;
  mutable start_time : float;
}

type observer = {
  on_link : int -> string -> unit;  (** link id, name; [bandwidth] *)
  on_conn : int -> unit;  (** a bare (version-1) conn-def *)
  on_conn_meta : int -> int -> unit;
      (** conn id, flow size + 1 (0 = infinite); [start_time] *)
  on_inject : int -> int -> int -> int -> int -> unit;  (** packet *)
  on_deliver : int -> int -> int -> int -> int -> unit;  (** packet *)
  on_enqueue : int -> int -> int -> int -> int -> int -> int -> unit;
      (** link id, packet, queue length after the enqueue *)
  on_drop : int -> int -> int -> int -> int -> int -> unit;
      (** link id, packet *)
  on_depart : int -> int -> int -> int -> int -> int -> int -> unit;
      (** link id, packet, queue length after the departure *)
  on_fault : int -> string -> int -> int -> int -> int -> int -> unit;
      (** link id, fault label, packet *)
  on_send : int -> int -> int -> int -> int -> int -> unit;
      (** conn id, packet *)
  on_cwnd : int -> unit;  (** conn id; [cwnd], [ssthresh] *)
  on_loss : int -> string -> unit;
      (** conn id, reason (["timeout"] / ["dup_ack"]) *)
  on_ack_tx : int -> int -> int -> unit;
      (** conn id, ackno, flags (bit 0 delayed, bit 1 duplicate) *)
}

(** Every callback does nothing: [{ ignore_all with on_send = ... }] is
    an observer of sends. *)
val ignore_all : observer

(** [decode data observe] calls [observe] on the decoder's cell once,
    then reports each complete record of an in-memory trace to the
    observer it returned, in stream order; a callback runs only once its
    whole record decoded, never for a record past a stop.  Returns the
    file version and why decoding stopped early, if it did.  [Error]
    means the data is not a readable binary trace at all (bad magic or
    unsupported version); [observe] is then never called.  The decoder
    itself allocates once per trace and once per string or link def,
    never per record; the observer's allocations are its own. *)
val decode :
  string -> (cell -> observer) -> (int * stop option, string) result

(** {!decode} with an observer that builds each record's {!item} and
    calls [f] on it.  Items share what repeats: a packet whose six
    fields equal one of the last few decoded, and the time of the
    previous event if it has the same bits, are the same values. *)
val iter : string -> (item -> unit) -> (int * stop option, string) result

(** Every item {!iter} would deliver, as a list in stream order, built
    as it decodes (no reversed copy); [torn] carries the note of either
    kind of {!stop}. *)
val read : string -> (file, string) result

(** {2 Offline formatters} *)

(** Decode and render every event as a JSONL line (defs are skipped), in
    one pass: fixed key order, shortest round-trip floats.  [sink] gets
    one call per line, newline included.  Returns what {!iter} returns;
    on [Error] nothing was written. *)
val export_jsonl :
  string -> (string -> unit) -> (int * stop option, string) result

(** [recent_jsonl w sink] decodes {!recorder} [w]'s spare and live
    segments and renders the last [min n (events_written w)] events,
    oldest first, as {!export_jsonl} renders them: one call of [sink]
    per line, newline included.  Returns how many lines it rendered.
    @raise Invalid_argument if [w] is not a {!recorder}. *)
val recent_jsonl : writer -> (string -> unit) -> int

(** Decode and render a Chrome [trace_event] JSON file (loadable in
    Perfetto / [chrome://tracing]) in one pass, byte-identical to the
    historical online chrome sink: link/conn defs become thread-name
    metadata, departures become complete slices spanning the
    serialization interval.  Returns what {!iter} returns; on [Error]
    nothing was written. *)
val export_chrome :
  string -> (string -> unit) -> (int * stop option, string) result

(** {2 Validation}

    Reference-integrity and well-formedness audit of a binary trace,
    without converting it first. *)

type audit = {
  audit_version : int;
  audit_events : int;
  audit_links : int;
  audit_conns : int;  (** distinct declared connections *)
  audit_torn : string option;
      (** the {!Torn} note, if any — a plain truncation (crash before
          the final flush) is reported here but is not an error *)
  audit_errors : string list;
      (** integrity violations: events referencing a connection never
          declared (by conn-def or conn-meta), event times going
          backwards, or the {!Corrupt} note *)
}

(** Decode and audit in one {!decode} pass, building no items.  [Error]
    only when the data is not a readable binary trace at all (same cases
    as {!decode}); integrity violations land in [audit_errors]. *)
val validate : string -> (audit, string) result
