let name = "monotone"

type conn_state = {
  mutable max_ack_sent : int;  (* largest cumulative ACK injected, -1 if none *)
  mutable next_new_seq : int;  (* next never-before-sent data sequence *)
  mutable max_ack_delivered : int;  (* largest ACK handed to the sender *)
}

type t = { report : Report.t; conns : conn_state Engine.Int_tbl.t }

let create report = { report; conns = Engine.Int_tbl.create 16 }

let state t conn =
  match Engine.Int_tbl.find t.conns conn with
  | s -> s
  | exception Not_found ->
    let s = { max_ack_sent = -1; next_new_seq = 0; max_ack_delivered = 0 } in
    Engine.Int_tbl.add t.conns conn s;
    s

let add t ~time ~conn fmt =
  Printf.ksprintf
    (fun detail ->
      Report.add t.report ~time ~checker:name
        ~subject:(Printf.sprintf "conn %d" conn)
        ~detail)
    fmt

(* Inlined, so a hook's time is boxed only to report a violation. *)
let[@inline] observe_inject t ~time (p : Net.Packet.t) =
  let s = state t p.Net.Packet.conn in
  match p.Net.Packet.kind with
  | Net.Packet.Ack ->
    if p.Net.Packet.seq < s.max_ack_sent then
      add t ~time ~conn:p.Net.Packet.conn
        "cumulative ACK went backwards: %d after %d" p.Net.Packet.seq
        s.max_ack_sent
    else s.max_ack_sent <- p.Net.Packet.seq
  | Net.Packet.Data ->
    if p.Net.Packet.retransmit then begin
      if p.Net.Packet.seq >= s.next_new_seq then
        add t ~time ~conn:p.Net.Packet.conn
          "retransmission of seq %d beyond highest sent %d" p.Net.Packet.seq
          (s.next_new_seq - 1)
    end
    else begin
      if p.Net.Packet.seq <> s.next_new_seq then
        add t ~time ~conn:p.Net.Packet.conn
          "new data sequence not contiguous: sent %d, expected %d"
          p.Net.Packet.seq s.next_new_seq;
      (* Resynchronize so one gap is reported once, not per packet. *)
      s.next_new_seq <- max s.next_new_seq (p.Net.Packet.seq + 1)
    end

let[@inline] observe_deliver t ~time:_ (p : Net.Packet.t) =
  match p.Net.Packet.kind with
  | Net.Packet.Ack ->
    let s = state t p.Net.Packet.conn in
    if p.Net.Packet.seq > s.max_ack_delivered then
      s.max_ack_delivered <- p.Net.Packet.seq
  | Net.Packet.Data -> ()

(* Largest cumulative ACK actually handed to the sender's host; equals the
   sender's [snd_una] once its endpoint has processed the ACK. *)
let max_ack_delivered t ~conn =
  match Engine.Int_tbl.find t.conns conn with
  | s -> s.max_ack_delivered
  | exception Not_found -> 0
