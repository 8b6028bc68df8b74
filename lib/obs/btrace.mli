(** Compact binary trace format: the one trace event type ({!ev}), the
    writer the {!Probe} hooks call, the one decoder ({!iter}) every
    reader folds over, and the JSONL / Chrome-trace formatters.

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
    and zero per-event syscalls on the hot path.  {!iter} is
    torn-tolerant — a file cut mid-record (crash before the final
    flush) yields every complete record plus a note describing the torn
    tail — and strict: it stops at the first record the writer cannot
    produce and says so (see {!stop}). *)

val magic : string
val version : int

(** Oldest file version {!iter} still accepts. *)
val min_version : int

(** {2 Decoded plain data}

    Decoded events carry copies, never live model objects.  A link is
    its identity: [link_id] doubles as the Perfetto track id,
    [bandwidth] reconstructs departure slice durations offline.

    The values are immutable, and the decoder hands out one value where
    records repeat one: items may share a physically equal [pkt] (the
    same packet's enqueue, departure and delivery), time or [link].
    Compare them with [=], never with [==]. *)

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

(** Why {!iter} stopped before the end of the data; every record before
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

(** {2 Decoder and offline formatters} *)

(** [iter data f] decodes an in-memory trace, calling [f] on each
    complete record in stream order (string-defs are resolved, not
    delivered).  Returns the file version and why decoding stopped
    early, if it did.  [Error] means the data is not a readable binary
    trace at all (bad magic or unsupported version); [f] is then never
    called. *)
val iter : string -> (item -> unit) -> (int * stop option, string) result

(** Every item {!iter} would deliver, as a list in stream order, built
    as it decodes (no reversed copy); [torn] carries the note of either
    kind of {!stop}. *)
val read : string -> (file, string) result

(** One JSONL object (no trailing newline), byte-identical to the
    historical online JSONL encoding: fixed key order, shortest
    round-trip floats. *)
val jsonl_line : time:float -> ev -> string

(** Decode and render every event as a JSONL line (defs are skipped), in
    one pass; [sink] gets one call per line, newline included.  Returns
    what {!iter} returns; on [Error] nothing was written. *)
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

(** Decode and audit in one {!iter} pass.  [Error] only when the data is
    not a readable binary trace at all (same cases as {!iter});
    integrity violations land in [audit_errors]. *)
val validate : string -> (audit, string) result
