let name = "conservation"

type status = In_flight | Delivered | Dropped

type t = {
  report : Report.t;
  table : status Engine.Int_tbl.t;  (* packet id -> status *)
  mutable injected : int;
  mutable delivered : int;
  mutable dropped : int;
}

let create report =
  { report; table = Engine.Int_tbl.create 4096; injected = 0; delivered = 0;
    dropped = 0 }

let injected t = t.injected
let delivered t = t.delivered
let dropped t = t.dropped
let in_flight t = t.injected - t.delivered - t.dropped

let violation t ~time (p : Net.Packet.t) fmt =
  Printf.ksprintf
    (fun detail ->
      Report.add t.report ~time ~checker:name
        ~subject:
          (Printf.sprintf "packet #%d conn=%d %s seq=%d" p.Net.Packet.id
             p.Net.Packet.conn
             (Net.Packet.kind_to_string p.Net.Packet.kind)
             p.Net.Packet.seq)
        ~detail)
    fmt

(* Inlined, so a hook's time is boxed only to report a violation. *)
let[@inline] observe_inject t ~time (p : Net.Packet.t) =
  if Engine.Int_tbl.mem t.table p.Net.Packet.id then
    violation t ~time p "injected twice (duplicate packet id)"
  else begin
    Engine.Int_tbl.add t.table p.Net.Packet.id In_flight;
    t.injected <- t.injected + 1
  end

let[@inline] observe_drop t ~time (p : Net.Packet.t) =
  match Engine.Int_tbl.find t.table p.Net.Packet.id with
  | In_flight ->
    Engine.Int_tbl.replace t.table p.Net.Packet.id Dropped;
    t.dropped <- t.dropped + 1
  | Dropped -> violation t ~time p "dropped twice"
  | Delivered -> violation t ~time p "dropped after delivery"
  | exception Not_found -> violation t ~time p "dropped but never injected"

(* A fault-injected duplicate is a new wire entity born inside the
   network: ledger it as injected so its later delivery (or drop)
   balances.  Fault drops need no special casing — the link fires its
   ordinary drop hook for them. *)
let[@inline] observe_fault t ~time (event : Net.Link.fault_event) p =
  match event with
  | Net.Link.Fault_duplicate -> observe_inject t ~time p
  | Net.Link.Fault_drop _ | Net.Link.Fault_delay _ -> ()

let[@inline] observe_deliver t ~time (p : Net.Packet.t) =
  match Engine.Int_tbl.find t.table p.Net.Packet.id with
  | In_flight ->
    Engine.Int_tbl.replace t.table p.Net.Packet.id Delivered;
    t.delivered <- t.delivered + 1
  | Delivered -> violation t ~time p "delivered twice (duplicated)"
  | Dropped -> violation t ~time p "delivered after being dropped"
  | exception Not_found -> violation t ~time p "delivered but never injected"

(* End-of-run audit: every packet still sitting in a link buffer must be
   accounted as in-flight, and the per-status counts must add up. *)
let finalize t ~time ~links =
  List.iter
    (fun link ->
      List.iter
        (fun (p : Net.Packet.t) ->
          match Engine.Int_tbl.find t.table p.Net.Packet.id with
          | In_flight -> ()
          | Delivered ->
            violation t ~time p "queued on link %s but already delivered"
              (Net.Link.name link)
          | Dropped ->
            violation t ~time p "queued on link %s but already dropped"
              (Net.Link.name link)
          | exception Not_found ->
            violation t ~time p "queued on link %s but never injected"
              (Net.Link.name link))
        (Net.Link.contents link))
    links;
  if in_flight t < 0 then
    Report.add t.report ~time ~checker:name ~subject:"network"
      ~detail:
        (Printf.sprintf
           "negative in-flight count: injected %d, delivered %d, dropped %d"
           t.injected t.delivered t.dropped)
