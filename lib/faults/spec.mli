(** Declarative fault models for one link.

    A spec is pure data: what can go wrong on the link and with what
    parameters.  {!Plan.install} turns a spec into live state (per-link
    RNG streams, Gilbert–Elliott chain state, scheduled outage events)
    attached to a {!Net.Link}.

    Fault kinds:

    - {b loss} — per-packet discard at link ingress: [Bernoulli p], or a
      [Gilbert_elliott] two-state chain (the chain advances one step per
      offered packet; [p_enter]/[p_exit] are the per-packet transition
      probabilities and [loss_in_burst]/[loss_outside] the state-dependent
      loss probabilities), giving bursty correlated loss.
    - {b outage} — intervals during which the link is down: everything in
      flight is lost on the cut and every send while down is discarded.
      [windows] are fixed [(start, stop)] intervals; [flap] adds random
      up/down cycling with exponentially distributed durations of the
      given means.
    - {b jitter} — bounded uniform extra delivery latency in
      [\[0, bound)] added after serialization.  With
      [preserve_order = true] (the default) the sampled delay is extended
      so deliveries stay FIFO; with [false] packets may overtake each
      other in flight.
    - {b duplicate} — per-packet probability that an accepted packet is
      offered to the buffer twice; the copy has a fresh packet id and is
      never re-duplicated. *)

type loss =
  | Bernoulli of float
  | Gilbert_elliott of {
      p_enter : float;
      p_exit : float;
      loss_in_burst : float;
      loss_outside : float;
    }

type outage = {
  windows : (float * float) list;  (** (start, stop) down intervals *)
  flap : (float * float) option;  (** (mean_up, mean_down) seconds *)
}

type jitter = { bound : float; preserve_order : bool }

type t = {
  loss : loss option;
  outage : outage option;
  jitter : jitter option;
  duplicate : float option;  (** per-packet duplication probability *)
}

(** The empty spec: no faults. *)
val none : t

(** Validating constructor.
    @raise Invalid_argument on probabilities outside [\[0, 1]], a negative
    jitter bound, non-positive flap means, or outage windows that are not
    ascending, non-overlapping [(start, stop)] pairs with
    [0 <= start < stop]. *)
val make :
  ?loss:loss ->
  ?outage:outage ->
  ?jitter:jitter ->
  ?duplicate:float ->
  unit ->
  t

(** {2 Shorthands} (all validate like {!make}) *)

val bernoulli : float -> t

val burst :
  ?loss_outside:float ->
  p_enter:float ->
  p_exit:float ->
  loss_in_burst:float ->
  unit ->
  t

val scheduled_outage : (float * float) list -> t
val jitter : ?preserve_order:bool -> float -> t
val duplicate : float -> t

(** Combine two specs covering disjoint fault kinds.
    @raise Invalid_argument if both define the same kind. *)
val merge : t -> t -> t

(** [true] if the spec can never affect a packet. *)
val is_noop : t -> bool

val to_string : t -> string
