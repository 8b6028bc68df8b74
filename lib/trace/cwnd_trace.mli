(** Records a sender's congestion window (and [ssthresh]) as step series,
    reproducing the cwnd graphs of Figures 2, 5 and 7, from attach time
    on, stamped with the sender's clock ({!Tcp.Sender.now}). *)

type t

val attach : Tcp.Sender.t -> t
val cwnd : t -> Series.t
val ssthresh : t -> Series.t

(** The sender's connection id. *)
val conn : t -> int
