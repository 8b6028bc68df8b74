(** A complete experiment description on the Figure-1 dumbbell: bottleneck
    parameters, the set of connections (with their direction), and the
    measurement window.

    [Forward] connections source data on Host-1 (destination Host-2);
    [Reverse] connections source on Host-2.  The paper's one-way
    configurations use only [Forward] connections; two-way configurations
    use both. *)

type direction = Forward | Reverse

type conn_spec = {
  dir : direction;
  cc : Tcp.Cc.spec;  (** congestion controller ({!Tcp.Cc_zoo} table name) *)
  start_time : float;
  delayed_ack : bool;
  ack_size : int;  (** bytes; 0 for the zero-length-ACK system *)
  loss_detection : bool;
  maxwnd : int;  (** receiver-advertised window; paper default 1000 *)
  rto_params : Tcp.Rto.params;  (** timer behavior; default BSD 500 ms ticks *)
  pacing : float option;
      (** minimum spacing between data packets, s; [None] = nonpaced *)
  rtt_skew : float;  (** extra one-way latency for this sender's data, s *)
  flow_size : int option;  (** packets to transfer; [None] = infinite *)
}

(** Connection with paper defaults (Tahoe, modified CA, immediate ACKs,
    50-byte ACKs, started at [start_time], default 0).  [?cc] picks any
    {!Tcp.Cc_zoo} entry. *)
val conn :
  ?cc:Tcp.Cc.spec ->
  ?start_time:float ->
  ?delayed_ack:bool ->
  ?ack_size:int ->
  ?loss_detection:bool ->
  ?maxwnd:int ->
  ?rto_params:Tcp.Rto.params ->
  ?pacing:float option ->
  ?rtt_skew:float ->
  ?flow_size:int option ->
  direction ->
  conn_spec

(** Fixed-window connection: no congestion control, no loss detection,
    50-byte ACKs (used with infinite buffers, Figures 8-9). *)
val fixed_conn : ?start_time:float -> window:int -> direction -> conn_spec

(** The paper's fixed-window pair (Figures 8-9, 4.3.3): a forward
    connection of window [w1] starting at 0.37 s and a reverse one of
    window [w2] starting at 1.91 s, both with [ack_size]-byte ACKs
    (default 50), for a bottleneck of [buffer] packets.  Loss detection
    is on exactly when [buffer] is finite: a fixed window never backs
    off, so without go-back-N retransmission its first drop would wedge
    the run. *)
val fixed_pair :
  ?ack_size:int -> buffer:int option -> w1:int -> w2:int -> unit ->
  conn_spec list

(** Where a fault plan attaches on the dumbbell: the bottleneck link
    carrying forward data (and reverse ACKs), or the one carrying
    reverse data (and forward ACKs). *)
type fault_site = Fwd_bottleneck | Bwd_bottleneck

type t = {
  name : string;
  tau : float;  (** bottleneck propagation delay, s *)
  buffer : int option;  (** bottleneck buffer, packets; [None] = infinite *)
  gateway : Net.Discipline.kind;  (** bottleneck queueing discipline *)
  conns : conn_spec list;
  duration : float;  (** total simulated time, s *)
  warmup : float;  (** measurements cover [warmup, duration) *)
  sample_dt : float;  (** resampling grid for correlation analyses, s *)
  validate : bool;
      (** run the {!Validate.Harness} invariant checkers alongside the
          simulation (default [false]; the [NETSIM_VALIDATE] environment
          variable forces it on) *)
  faults : (fault_site * Faults.Spec.t) list;
      (** fault plans to install on the bottleneck links (at most one
          per site); default none *)
  fault_seed : int;
      (** seed for the fault RNG streams, independent of everything
          else in the scenario; default 1 *)
}

(** @raise Invalid_argument naming the field on empty [conns], a [tau] or
    [warmup] not finite and [>= 0.], a [duration] or [sample_dt] not
    finite and [> 0.] ({!Args.check}), [duration <= warmup] or a shared
    fault site. *)
val make :
  name:string ->
  tau:float ->
  buffer:int option ->
  ?gateway:Net.Discipline.kind ->
  conns:conn_spec list ->
  ?duration:float ->
  ?warmup:float ->
  ?sample_dt:float ->
  ?validate:bool ->
  ?faults:(fault_site * Faults.Spec.t) list ->
  ?fault_seed:int ->
  unit ->
  t

(** Paper pipe size [P] for this scenario (packets per direction). *)
val pipe : t -> float

(** Bottleneck transmission time of a data packet (s). *)
val data_tx : float

(** Stagger connection starts: spec [i] starts at [i * step] (plus its own
    [start_time]).  Avoids perfectly tied phases at t = 0. *)
val stagger : step:float -> conn_spec list -> conn_spec list
