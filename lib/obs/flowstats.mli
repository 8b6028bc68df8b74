(** Per-flow accounting: delivered bytes, retransmits, RTT samples,
    cwnd extrema and flow-completion time for every connection, plus
    aggregate fairness and distribution views.

    The registry is an int-keyed hash table ({!Engine.Int_tbl}), so its
    memory follows the number of flows, whatever their ids, and the
    steady-state accounting path allocates nothing.  RTT and FCT
    distributions go through {!Sketch}, so memory stays bounded at
    10^4+ flows.

    The same accounting rules are driven online (from {!Probe} hooks
    during a run) and offline (from {!observer} on the decoder's
    callbacks, or {!feed} on decoded items); they mirror the sender's
    own bookkeeping —
    including Karn's algorithm for RTT sampling — so the two paths
    agree {e bit-for-bit}: {!to_json} of a live run equals {!to_json}
    of its own trace, byte for byte. *)

type t

val create : unit -> t

(** Start accounting for [conn].  Registering an already-registered
    conn only refreshes the metadata (counters are kept).
    @raise Invalid_argument on a negative conn id. *)
val register : t -> conn:int -> start_time:float -> flow_size:int option -> unit

(** {2 Accounting}

    Events for unregistered connections are ignored. *)

(** A data-packet transmission ({!Btrace.Send}).  A first transmission
    starts the RTT timer when none is running; a retransmission counts
    and clears it (Karn). *)
val record_send :
  t -> time:float -> conn:int -> seq:int -> retransmit:bool -> unit

(** A data packet reaching the receiver ({!Btrace.Deliver}, Data). *)
val record_data_delivered : t -> conn:int -> bytes:int -> unit

(** A cumulative ACK reaching the sender ({!Btrace.Deliver}, Ack; the
    ackno travels in the packet's [seq] field).  Samples the RTT when
    the ACK covers the timed sequence, records completion when it
    covers a sized flow. *)
val record_ack_delivered : t -> time:float -> conn:int -> ackno:int -> unit

(** A loss signal ({!Btrace.Loss}): counts, and clears the RTT timer. *)
val record_loss : t -> conn:int -> unit

(** A cwnd change ({!Btrace.Cwnd}): tracks the extrema. *)
val record_cwnd : t -> conn:int -> cwnd:float -> unit

(** {2 Per-connection accounting}

    A hook that accounts one connection looks its record up once, at
    attach time, and then applies the same rules as {!record_send},
    {!record_loss} and {!record_cwnd} without a lookup per event. *)

type flow

(** [conn]'s record.  @raise Not_found if [conn] is not registered. *)
val flow : t -> conn:int -> flow

val flow_send : flow -> time:float -> seq:int -> retransmit:bool -> unit
val flow_loss : flow -> unit
val flow_cwnd : flow -> cwnd:float -> unit

(** {2 Offline}

    [Btrace.decode data (observer t)] accounts a whole binary trace in
    one pass, which [netsim trace stats] runs: conn-defs register flows
    (bare version-1 conn-defs with [start_time = 0.], infinite size),
    sends, deliveries, losses and cwnd changes go to the [record_*]
    functions above, and everything else is skipped.  It builds no
    items. *)
val observer : t -> Btrace.cell -> Btrace.observer

(** The same fold over one decoded {!Btrace.item}:
    [Btrace.iter data (feed t)] accounts a trace as {!observer} does,
    and [List.iter (feed t) file.items] a {!Btrace.read}. *)
val feed : t -> Btrace.item -> unit

(** {2 Views} *)

type stats = {
  s_conn : int;
  s_start_time : float;
  s_flow_size : int option;
  s_delivered_pkts : int;  (** data packets that reached the receiver *)
  s_delivered_bytes : int;
  s_data_sends : int;  (** first transmissions *)
  s_retransmits : int;
  s_loss_events : int;
  s_acked_pkts : int;  (** highest cumulative ackno seen *)
  s_rtt_samples : int;
  s_rtt_min : float option;
  s_rtt_mean : float option;
  s_rtt_max : float option;
  s_rtt_p50 : float option;
  s_rtt_p99 : float option;
  s_cwnd_min : float option;
  s_cwnd_max : float option;
  s_fct : float option;
      (** completion time - start time, sized flows only *)
  s_throughput : float option;  (** delivered bytes / fct, completed only *)
}

val stats : t -> conn:int -> stats option

(** Every registered flow, in connection-id order. *)
val all : t -> stats list

(** Jain's fairness index over per-flow delivered bytes ([None] when no
    flows; 1.0 when nothing was delivered at all). *)
val jain : t -> float option

(** Cross-flow quantile of the completion times of completed flows. *)
val fct_quantile : t -> float -> float option

(** {2 JSON}

    Deterministic encodings: fixed key order, shortest round-trip
    floats ([null] for absent values).  {!to_json} is the
    online/offline identity artifact — a trailing newline included, so
    the CLI can write it to a file verbatim. *)

val flow_json : stats -> string
val to_json : t -> string
