type kind = Data | Ack

type t = {
  id : int;
  conn : int;
  kind : kind;
  seq : int;
  size : int;
  src : int;
  dst : int;
  retransmit : bool;
}

(* Filler for slots that have never held a packet (a link's transmitter
   before its first packet, fresh ring and delay-line slots) and the "no
   packet" result of a dequeue: compared with (==), never offered to a
   link or counted anywhere. *)
let none =
  {
    id = -1;
    conn = -1;
    kind = Data;
    seq = -1;
    size = 0;
    src = -1;
    dst = -1;
    retransmit = false;
  }

let kind_to_string = function Data -> "data" | Ack -> "ack"
