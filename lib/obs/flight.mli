(** Flight recorder: a bounded ring of the most recent trace records.

    The recorder keeps the last [capacity] entries so that when
    something goes wrong mid-run — an invariant checker fires, a fault
    experiment diverges, [Sim.run] raises — the events leading up to
    the failure can be dumped as a postmortem instead of being lost
    with the process.

    Entries are plain values copied in at record time.  {!Probe} arms
    one with its own hooks, each recording the event's time and a plain
    {!Btrace.ev} copy: the values the trace decoder yields, so one JSONL
    renderer serves the ring and a decoded trace.

    Slot selection uses an explicit wrapping cursor, never
    [total mod capacity]: [total] only reports how many entries were
    ever recorded and saturates at [max_int] instead of wrapping
    negative. *)

type 'a t

(** @raise Invalid_argument if [capacity < 1]. *)
val create : capacity:int -> 'a t

(** Entries currently held (at most [capacity]). *)
val length : 'a t -> int

(** Total entries ever recorded, including overwritten ones.
    Saturates at [max_int]. *)
val total : 'a t -> int

val record : 'a t -> 'a -> unit

(** Test hook: overwrite the ever-recorded count (ring contents are
    untouched) to exercise the saturation boundary.
    @raise Invalid_argument if [n] is less than {!length}. *)
val force_total : 'a t -> int -> unit

(** Held entries, oldest first. *)
val entries : 'a t -> 'a list

(** [dump t ~reason ~render write] sends a postmortem to [write]: a
    banner naming [reason] and how many of the total events are shown,
    then each held entry through [render], oldest first, each
    terminated with a newline. *)
val dump : 'a t -> reason:string -> render:('a -> string) -> (string -> unit) -> unit
