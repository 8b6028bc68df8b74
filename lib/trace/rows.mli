(** Helpers shared by the per-packet logs ({!Dep_log}, {!Drop_log}),
    which keep one row per packet across {!Column}s
    and build record lists only when asked. *)

(** A packet's connection and kind in one int, so a log spends one int
    column on both.  [conn (pack ~conn ~kind) = conn] for any [conn]
    that fits in 62 bits. *)
val pack : conn:int -> kind:Net.Packet.kind -> int

val conn : int -> int
val kind : int -> Net.Packet.kind

(** [all n row] is [[row 0; ...; row (n - 1)]]. *)
val all : int -> (int -> 'a) -> 'a list

(** [in_window time ~t0 ~t1 row] maps [row] over the indices whose
    [time] lies in [\[t0, t1)], in index order.  It reads the time column
    chunk by chunk and calls [row] only for the indices it keeps. *)
val in_window :
  Column.Float.t -> t0:float -> t1:float -> (int -> 'a) -> 'a list
