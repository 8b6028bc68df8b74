(** Records a sender's congestion window (and [ssthresh]) as step series,
    reproducing the cwnd graphs of Figures 2, 5 and 7, from attach time
    on, stamped with the sender's clock ({!Tcp.Sender.now}). *)

type t

(** [keep] (default [true]) hooks the sender and records both series;
    with [~keep:false] nothing is hooked or recorded, and {!cwnd} and
    {!ssthresh} raise. *)
val attach : ?keep:bool -> Tcp.Sender.t -> t

(** @raise Invalid_argument naming the Cwnd log if [t] was attached
    with [~keep:false]; so does {!ssthresh}. *)
val cwnd : t -> Series.t

val ssthresh : t -> Series.t

(** The sender's connection id. *)
val conn : t -> int
