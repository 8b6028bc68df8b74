(** Pluggable congestion control.

    The congestion controller is a first-class module: every algorithm
    implements {!S} (window arithmetic only — the sender owns
    retransmission, timers and pacing) and is listed under a string key
    in {!Cc_zoo}'s table.  {!Sender} drives whatever instance its
    {!Config} names, so scenarios, sweeps and the CLI can swap
    algorithms without touching the transport machinery.

    A controller is named by a {!spec}: a table key plus optional
    [k=v] float parameters, written ["name"] or ["name:k=v,k=v"]
    (e.g. ["aimd:a=1,b=0.7"]).  Unknown names and unknown parameter
    keys are rejected at instantiation, so a typo fails the run up
    front rather than silently running Tahoe.

    Window sizes are measured in units of maximum-size packets, as in
    the paper. *)

(** How a loss was detected.  [Fast_retransmit] is the dup-ACK
    threshold; [Timeout] is the retransmission timer (and always
    collapses adaptive controllers to slow start). *)
type reason = Fast_retransmit | Timeout

(** {1 Specs} *)

type spec = { name : string; params : (string * float) list }

val spec : ?params:(string * float) list -> string -> spec

(** Parse ["name"] or ["name:k=v,k=v"].  Purely syntactic — the name
    and keys are checked by {!Cc_zoo.make}. *)
val spec_of_string : string -> (spec, string) result

(** Inverse of {!spec_of_string}: parameters in order, each value in
    its shortest round-trip spelling ({!Engine.Units.float_repr}), so
    [spec_of_string (spec_to_string s) = Ok s]. *)
val spec_to_string : spec -> string

(** {1 The module interface} *)

module type S = sig
  type t

  (** Table key ("tahoe", "newreno", ...). *)
  val id : string

  (** One-line description for the zoo table. *)
  val describe : string

  (** [create ~maxwnd ~params] builds the initial state (slow start
      where applicable).  Must reject unknown parameter keys and
      out-of-range values with [Invalid_argument]; {!instantiate} has
      already rejected non-finite values. *)
  val create : maxwnd:int -> params:(string * float) list -> t

  (** An ACK of new data arrived: [ackno] is the new cumulative ACK,
      [newly] the number of packets it acknowledges.  Returns [true]
      when the controller remains in a recovery that requires the
      sender to retransmit the first unacknowledged segment (NewReno
      partial-ACK recovery); plain controllers always return [false]. *)
  val on_ack : t -> ackno:int -> newly:int -> bool

  (** A duplicate ACK beyond the fast-retransmit threshold (Reno-style
      window inflation; no-op elsewhere). *)
  val on_dup_ack : t -> unit

  (** Loss detected.  [highest_sent] is the largest sequence number
      transmitted so far (NewReno's recovery point). *)
  val on_loss : t -> reason -> highest_sent:int -> unit

  (** A Karn-valid RTT measurement (delay-based controllers). *)
  val on_rtt_sample : t -> rtt:float -> unit

  (** The usable window in whole packets: at least 1, at most the
      advertised [maxwnd]. *)
  val window : t -> int

  (** The continuous window (for traces; the effective total for
      hybrid controllers). *)
  val cwnd : t -> float

  val ssthresh : t -> float
  val in_slow_start : t -> bool
  val in_recovery : t -> bool

  (** Back to the initial state (new connection). *)
  val reset : t -> unit
end

(** {1 Running instances} *)

(** A running instance: the variant's module packed with its state, so
    each operation below is one call into the module. *)
type t

(** Raises [Invalid_argument] for [maxwnd < 2] or a non-finite
    parameter value, and whatever the module's [create] raises. *)
val instantiate : (module S) -> maxwnd:int -> params:(string * float) list -> t

val name : t -> string
val on_ack : t -> ackno:int -> newly:int -> bool
val on_dup_ack : t -> unit
val on_loss : t -> reason -> highest_sent:int -> unit
val on_rtt_sample : t -> rtt:float -> unit
val window : t -> int
val cwnd : t -> float
val ssthresh : t -> float
val in_slow_start : t -> bool
val in_recovery : t -> bool
val reset : t -> unit

(** {1 Parameter helpers for implementations} *)

(** [param params key ~default]. *)
val param : (string * float) list -> string -> default:float -> float

(** [param] for an integer-valued parameter: a fractional value raises
    [Invalid_argument] (naming [who]) rather than being truncated. *)
val int_param :
  who:string -> (string * float) list -> string -> default:int -> int

(** Reject keys outside [allowed] with [Invalid_argument]. *)
val check_params : who:string -> allowed:string list -> (string * float) list -> unit
