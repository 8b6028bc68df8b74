(** Per-connection configuration.

    Defaults mirror the paper (§2.2): 500-byte data packets, 50-byte ACKs,
    [maxwnd = 1000] (never binding), delayed-ACK off, 3-dup-ACK fast
    retransmit, BSD-style coarse timers.  Set [loss_detection = false] for
    the fixed-window experiments, where retransmission logic is out of
    scope (infinite buffers, no drops). *)

(** Data packet size in bytes (the paper's 500). *)
val data_size : int

(** Delayed-ACK timer, s. *)
val delack_timeout : float

(** Duplicate ACKs that trigger a fast retransmit. *)
val dupack_threshold : int

type t = {
  conn : int;  (** connection id, unique per network *)
  src_host : int;  (** data source host *)
  dst_host : int;  (** data sink host *)
  ack_size : int;  (** bytes; 0 models the §4.3.3 zero-length-ACK system *)
  maxwnd : int;
  cc : Cc.spec;  (** congestion controller, resolved via {!Cc_zoo} *)
  start_time : float;
  delayed_ack : bool;
  loss_detection : bool;
  rto_params : Rto.params;
  pacing : float option;
      (** if [Some interval], data packets are never injected closer than
          [interval] seconds apart — the paper's "paced" class of
          algorithms (1, footnote 2).  [None] = nonpaced (BSD behavior). *)
  flow_size : int option;
      (** total packets to transfer; [None] = infinite source (the paper's
          workload).  A sized flow stops sending once every packet is
          acknowledged. *)
  rtt_skew : float;
      (** extra one-way latency (s) added to each data packet this sender
          injects, modeling a longer access path.  The paper's clustering
          analysis "depends in detail on the round-trip times of the
          various connections being identical" (3.1, 5); a nonzero skew
          breaks that assumption. *)
}

(** [?cc] names the congestion controller (default ["tahoe"]).  The spec
    is instantiated once here, so an unknown name or bad parameter raises
    [Invalid_argument] immediately. *)
val make :
  conn:int ->
  src_host:int ->
  dst_host:int ->
  ?ack_size:int ->
  ?maxwnd:int ->
  ?cc:Cc.spec ->
  ?start_time:float ->
  ?delayed_ack:bool ->
  ?loss_detection:bool ->
  ?rto_params:Rto.params ->
  ?pacing:float option ->
  ?flow_size:int option ->
  ?rtt_skew:float ->
  unit ->
  t
