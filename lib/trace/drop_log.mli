(** Log of packet drops, for loss-synchronization analysis.

    One log can watch several links (e.g. both bottleneck directions). *)

type record = {
  time : float;
  conn : int;
  kind : Net.Packet.kind;
  seq : int;
  link : int;  (** link id where the drop occurred *)
}

type t

val create : unit -> t
val watch : t -> Net.Link.t -> unit
val records : t -> record list

(** Drops in chronological order restricted to [t0 <= time < t1]. *)
val in_window : t -> t0:float -> t1:float -> record list

val total : t -> int
