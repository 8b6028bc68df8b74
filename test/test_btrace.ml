(* Binary trace format (lib/obs/btrace.ml): encode/decode round trips
   every event kind bit-exactly, the reader rejects non-traces, and —
   the crash-safety property — any prefix of a valid stream decodes to
   an exact prefix of its records, with a torn tail reported instead of
   an error. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* One event as its JSONL line, spelled here apart from the exporter:
   fixed key order, shortest round-trip floats, and a send's conn left
   out, as the historical online JSONL encoding had it. *)
let jsonl_line t ev =
  let open Obs.Btrace in
  let esc = Obs.Json.escape and fl = Obs.Json.float_repr in
  let pkt (p : pkt) =
    Printf.sprintf ",\"id\":%d,\"conn\":%d,\"kind\":\"%s\",\"seq\":%d%s" p.id
      p.conn
      (Net.Packet.kind_to_string p.kind)
      p.seq
      (if p.retransmit then ",\"rexmt\":true" else "")
  in
  let link (l : link) = Printf.sprintf ",\"link\":\"%s\"" (esc l.link_name) in
  Printf.sprintf "{\"t\":%s,\"ev\":\"%s\"%s}" (fl t) (ev_label ev)
    (match ev with
     | Inject p | Deliver p | Send { pkt = p; _ } -> pkt p
     | Enqueue { link = l; pkt = p; qlen }
     | Depart { link = l; pkt = p; qlen } ->
       link l ^ pkt p ^ Printf.sprintf ",\"qlen\":%d" qlen
     | Drop { link = l; pkt = p } -> link l ^ pkt p
     | Fault { link = l; label; pkt = p } ->
       link l ^ Printf.sprintf ",\"fault\":\"%s\"" (esc label) ^ pkt p
     | Cwnd { conn; cwnd; ssthresh } ->
       Printf.sprintf ",\"conn\":%d,\"cwnd\":%s,\"ssthresh\":%s" conn (fl cwnd)
         (fl ssthresh)
     | Loss { conn; reason } ->
       Printf.sprintf ",\"conn\":%d,\"reason\":\"%s\"" conn (esc reason)
     | Ack_tx { conn; ackno; delayed; dup } ->
       Printf.sprintf ",\"conn\":%d,\"ackno\":%d,\"delayed\":%b,\"dup\":%b" conn
         ackno delayed dup)

let item_to_string = function
  | Obs.Btrace.Def_link l ->
    Printf.sprintf "def_link %d %S %h" l.Obs.Btrace.link_id
      l.Obs.Btrace.link_name l.Obs.Btrace.bandwidth
  | Obs.Btrace.Def_conn c -> Printf.sprintf "def_conn %d" c
  | Obs.Btrace.Def_conn_meta { conn; start_time; flow_size } ->
    Printf.sprintf "def_conn_meta %d %h %s" conn start_time
      (match flow_size with None -> "inf" | Some n -> string_of_int n)
  | Obs.Btrace.Event (t, ev) ->
    (* The JSONL line leaves out sizes, link ids and bandwidths and a
       send's conn; spell them too, so equal strings mean equal items. *)
    let size (p : Obs.Btrace.pkt) = Printf.sprintf " size=%d" p.size in
    let on_link (l : Obs.Btrace.link) p =
      Printf.sprintf " link=%d/%h%s" l.link_id l.bandwidth (size p)
    in
    Printf.sprintf "%h %s%s" t
      (jsonl_line t ev)
      (match ev with
       | Inject p | Deliver p -> size p
       | Enqueue { link; pkt; _ }
       | Drop { link; pkt }
       | Depart { link; pkt; _ }
       | Fault { link; pkt; _ } ->
         on_link link pkt
       | Send { conn; pkt } -> Printf.sprintf " conn=%d%s" conn (size pkt)
       | Cwnd _ | Loss _ | Ack_tx _ -> "")

let item : Obs.Btrace.item Alcotest.testable =
  Alcotest.testable
    (fun ppf i -> Format.pp_print_string ppf (item_to_string i))
    (* Polymorphic equality is exact here: plain records of ints,
       strings, bools and (finite, bit-identical) floats. *)
    (fun a b -> a = b)

(* A tiny real network: btrace encodes live packets and links, so the
   fixture needs genuine [Net] values, not mocks. *)
let fixture () =
  let sim = Engine.Sim.create () in
  let net = Net.Network.create sim in
  let h1 = Net.Network.add_host net ~name:"h1" ~proc_delay:1e-4 in
  let h2 = Net.Network.add_host net ~name:"h2" ~proc_delay:1e-4 in
  let fwd, bwd =
    Net.Network.add_duplex net ~src:h1 ~dst:h2 ~bandwidth:1e6 ~prop_delay:0.01
      ~buffer:(Some 10)
  in
  let pkt ?(kind = Net.Packet.Data) ?(retransmit = false) seq =
    Net.Network.make_packet net ~conn:1 ~kind ~seq ~size:500 ~src:h1 ~dst:h2
      ~retransmit
  in
  (net, fwd, bwd, pkt)

(* The plain values a live packet and link decode to. *)
let plain_pkt (p : Net.Packet.t) : Obs.Btrace.pkt =
  { id = p.id; conn = p.conn; kind = p.kind; seq = p.seq;
    retransmit = p.retransmit; size = p.size }

let plain_link l : Obs.Btrace.link =
  { link_id = Net.Link.id l; link_name = Net.Link.name l;
    bandwidth = Net.Link.bandwidth l }

(* Encode one of everything through every per-kind writer function
   (awkward times included: 0.1 +. 0.2 needs 17 digits, 1e-9 exercises
   a large negative exponent jump) and return the byte stream plus the
   expected decoded items. *)
let encode_all () =
  let _net, fwd, bwd, pkt = fixture () in
  let p0 = pkt 0 in
  let p1 = pkt ~retransmit:true 1 in
  let ack = pkt ~kind:Net.Packet.Ack 2 in
  let buf = Buffer.create 1024 in
  let w = Obs.Btrace.writer ~segment:160 (Buffer.add_string buf) in
  let open Obs.Btrace in
  let f = plain_link fwd and b = plain_link bwd and pp = plain_pkt in
  (* Each writer call, at its time, with the event it must decode to. *)
  let events =
    [
      (0., (fun time -> inject w ~time p0), Inject (pp p0));
      ( 1e-9,
        (fun time -> enqueue w ~time ~link:fwd ~pkt:p0 ~qlen:3),
        Enqueue { link = f; pkt = pp p0; qlen = 3 } );
      ( 0.1,
        (fun time -> depart w ~time ~link:fwd ~pkt:p0 ~qlen:2),
        Depart { link = f; pkt = pp p0; qlen = 2 } );
      ( 0.1 +. 0.2,
        (fun time -> drop w ~time ~link:fwd ~pkt:p1),
        Drop { link = f; pkt = pp p1 } );
      ( 0.5,
        (fun time -> fault w ~time ~link:bwd ~label:"blackout" ~pkt:ack),
        Fault { link = b; label = "blackout"; pkt = pp ack } );
      (0.5, (fun time -> deliver w ~time p0), Deliver (pp p0));
      ( 2.25,
        (fun time -> send w ~time ~conn:1 ~pkt:p1),
        Send { conn = 1; pkt = pp p1 } );
      ( 3.,
        (fun time -> cwnd w ~time ~conn:1 ~cwnd:2.5 ~ssthresh:11.25),
        Cwnd { conn = 1; cwnd = 2.5; ssthresh = 11.25 } );
      ( 3.,
        (fun time -> loss w ~time ~conn:1 ~reason:"timeout"),
        Loss { conn = 1; reason = "timeout" } );
      ( 4.,
        (fun time -> loss w ~time ~conn:1 ~reason:"dup_ack"),
        Loss { conn = 1; reason = "dup_ack" } );
      ( 5.5,
        (fun time -> ack_tx w ~time ~conn:1 ~ackno:7 ~delayed:true ~dup:false),
        Ack_tx { conn = 1; ackno = 7; delayed = true; dup = false } );
    ]
  in
  declare_link w fwd;
  declare_link w bwd;
  (* A bare conn-def (tag 0x02, conn 1), as version-1 writers emitted
     it: the reader still takes one anywhere in a stream. *)
  flush w;
  Buffer.add_string buf "\x02\x01";
  declare_conn_meta w 2 ~start_time:(0.1 +. 0.2) ~flow_size:(Some 100);
  declare_conn_meta w 3 ~start_time:0. ~flow_size:None;
  List.iter (fun (time, write, _) -> write time) events;
  Alcotest.(check int) "every event record counted" (List.length events)
    (events_written w);
  flush w;
  let expected =
    Def_link f :: Def_link b :: Def_conn 1
    :: Def_conn_meta { conn = 2; start_time = 0.1 +. 0.2; flow_size = Some 100 }
    :: Def_conn_meta { conn = 3; start_time = 0.; flow_size = None }
    :: List.map (fun (t, _, ev) -> Event (t, ev)) events
  in
  (Buffer.contents buf, expected)

let test_roundtrip () =
  let data, expected = encode_all () in
  Alcotest.(check string) "magic leads the stream" Obs.Btrace.magic
    (String.sub data 0 4);
  match Obs.Btrace.read data with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok { Obs.Btrace.file_version; items; torn } ->
    Alcotest.(check int) "version" Obs.Btrace.version file_version;
    Alcotest.(check (option string)) "no torn tail" None torn;
    Alcotest.(check (list item)) "every record round-trips" expected items

(* Times whose deltas take every varint width the decoder treats apart:
   up to 8 bytes accumulate in a native int, 9 and 10 continue in
   Int64 (11 is in [malformed]).  Each time must come back with the
   same bits. *)
let test_time_widths_roundtrip () =
  let _net, _fwd, _bwd, pkt = fixture () in
  let p = pkt 0 in
  let buf = Buffer.create 256 in
  let w = Obs.Btrace.writer (Buffer.add_string buf) in
  Obs.Btrace.flush w;
  (* Each time with its delta's width; an inject record is the tag,
     the time varint and 6 bytes of packet. *)
  let times =
    [
      (0., 1);
      (Int64.float_of_bits 1L (* the smallest subnormal *), 1);
      (Int64.float_of_bits 1L, 1);
      (1e-300, 9);
      (1.0, 9);
      (3.0, 8);
      (2.0 (* backwards *), 8);
      (-0.0, 10);
      (-1.5, 9);
      (1.0, 10);
    ]
  in
  List.iter
    (fun (time, width) ->
      let before = Buffer.length buf in
      Obs.Btrace.inject w ~time p;
      Obs.Btrace.flush w;
      Alcotest.(check int)
        (Printf.sprintf "delta to %h takes %d bytes" time width)
        (1 + width + 6)
        (Buffer.length buf - before))
    times;
  let bits = ref [] in
  (match
     Obs.Btrace.iter (Buffer.contents buf) (function
       | Obs.Btrace.Event (t, _) -> bits := Int64.bits_of_float t :: !bits
       | _ -> ())
   with
   | Ok (_, None) -> ()
   | _ -> Alcotest.fail "the stream did not decode cleanly");
  Alcotest.(check (list int64)) "every time decodes bit-exactly"
    (List.map (fun (t, _) -> Int64.bits_of_float t) times)
    (List.rev !bits)

let test_reject_non_traces () =
  (match Obs.Btrace.read "" with
   | Error msg ->
     Alcotest.(check bool) "empty names the magic" true (contains msg "magic")
   | Ok _ -> Alcotest.fail "empty string accepted");
  (match Obs.Btrace.read "{\"t\":0,\"ev\":\"inject\"}\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "JSONL accepted as binary");
  match Obs.Btrace.read (Obs.Btrace.magic ^ "\xff") with
  | Error msg ->
    Alcotest.(check bool) "unknown version named" true (contains msg "version")
  | Ok _ -> Alcotest.fail "unknown version accepted"

(* Crash-safety: cut the stream at EVERY byte boundary.  Each prefix
   must decode to an exact prefix of the full record list — never an
   error, never a corrupted record — and a cut that lands mid-record
   must say so, as a torn tail and never as corruption. *)
let test_every_truncation_recovers () =
  let data, expected = encode_all () in
  let full = Array.of_list expected in
  let saw_torn = ref 0 in
  for len = 5 to String.length data - 1 do
    let items = ref [] in
    match
      Obs.Btrace.iter (String.sub data 0 len) (fun i -> items := i :: !items)
    with
    | Error msg -> Alcotest.failf "prefix of %d bytes unreadable: %s" len msg
    | Ok (_, stop) ->
      let items = List.rev !items in
      (match stop with
       | Some (Obs.Btrace.Torn msg) ->
         incr saw_torn;
         Alcotest.(check bool)
           (Printf.sprintf "torn note locates the cut (len %d)" len)
           true
           (contains msg "torn record at byte")
       | Some (Obs.Btrace.Corrupt msg) ->
         Alcotest.failf "cut at %d bytes reported as corruption: %s" len msg
       | None -> ());
      List.iteri
        (fun i got ->
          if i >= Array.length full || got <> full.(i) then
            Alcotest.failf
              "prefix of %d bytes decoded a record not in the original: %s"
              len (item_to_string got))
        items;
      (* String-defs are records too, so a prefix may hold fewer
         exported items than bytes suggest — but never more. *)
      Alcotest.(check bool) "no invented records" true
        (List.length items <= Array.length full)
  done;
  Alcotest.(check bool) "some cuts landed mid-record" true (!saw_torn > 0)

let test_truncation_keeps_complete_records () =
  let data, expected = encode_all () in
  (* Drop one byte: exactly the final record is lost, everything before
     it survives complete. *)
  match Obs.Btrace.read (String.sub data 0 (String.length data - 1)) with
  | Error msg -> Alcotest.failf "truncated trace unreadable: %s" msg
  | Ok { Obs.Btrace.items; torn; _ } ->
    Alcotest.(check int) "all but the cut record recovered"
      (List.length expected - 1)
      (List.length items);
    (match torn with
     | Some msg ->
       (* The recovered count in the note also includes string-def
          records, which never surface as items; just pin the shape. *)
       Alcotest.(check bool) "note counts recovered records" true
         (contains msg "complete records recovered")
     | None -> Alcotest.fail "mid-record cut not reported")

let test_export_jsonl_matches_line_renderer () =
  let data, _ = encode_all () in
  match Obs.Btrace.read data with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok { Obs.Btrace.items; _ } ->
    let buf = Buffer.create 1024 in
    (match Obs.Btrace.export_jsonl data (Buffer.add_string buf) with
     | Ok (_, None) -> ()
     | Ok (_, Some _) | Error _ -> Alcotest.fail "export stopped early");
    let expected =
      List.filter_map
        (function
          | Obs.Btrace.Event (t, ev) -> Some (jsonl_line t ev)
          | _ -> None)
        items
    in
    Alcotest.(check (list string))
      "export is the line renderer over events"
      expected
      (String.split_on_char '\n' (Buffer.contents buf)
      |> List.filter (fun l -> l <> ""));
    (* Bit-awkward floats keep their exact spelling through the binary
       hop: 0.1 +. 0.2 is not 0.3. *)
    Alcotest.(check bool) "17-digit time preserved" true
      (contains (Buffer.contents buf) "{\"t\":0.30000000000000004,")

(* Version-1 streams (no conn-meta records) stay readable: handcraft a
   minimal v1 file — header with version byte 1, one conn-def record —
   and check the reader takes it as-is. *)
let test_reads_v1_streams () =
  let data = Obs.Btrace.magic ^ "\x01" ^ "\x02\x01" in
  match Obs.Btrace.read data with
  | Error msg -> Alcotest.failf "v1 stream rejected: %s" msg
  | Ok { Obs.Btrace.file_version; items; torn } ->
    Alcotest.(check int) "version 1" 1 file_version;
    Alcotest.(check (option string)) "no torn tail" None torn;
    Alcotest.(check (list item)) "conn-def decoded" [ Obs.Btrace.Def_conn 1 ]
      items

let test_validate_clean () =
  let data, _ = encode_all () in
  match Obs.Btrace.validate data with
  | Error msg -> Alcotest.failf "clean trace failed validation: %s" msg
  | Ok a ->
    Alcotest.(check int) "version" Obs.Btrace.version a.Obs.Btrace.audit_version;
    Alcotest.(check int) "events" 11 a.Obs.Btrace.audit_events;
    Alcotest.(check int) "links" 2 a.Obs.Btrace.audit_links;
    Alcotest.(check int) "conns" 3 a.Obs.Btrace.audit_conns;
    Alcotest.(check (option string)) "not torn" None a.Obs.Btrace.audit_torn;
    Alcotest.(check (list string)) "no errors" [] a.Obs.Btrace.audit_errors

let test_validate_flags_undeclared_conn () =
  let _net, _fwd, _bwd, _pkt = fixture () in
  let buf = Buffer.create 256 in
  let w = Obs.Btrace.writer (Buffer.add_string buf) in
  Obs.Btrace.declare_conn_meta w 1 ~start_time:0. ~flow_size:None;
  Obs.Btrace.cwnd w ~time:1. ~conn:1 ~cwnd:2. ~ssthresh:8.;
  Obs.Btrace.loss w ~time:2. ~conn:7 ~reason:"timeout";
  Obs.Btrace.flush w;
  match Obs.Btrace.validate (Buffer.contents buf) with
  | Error msg -> Alcotest.failf "trace unreadable: %s" msg
  | Ok a ->
    Alcotest.(check int) "one error" 1 (List.length a.Obs.Btrace.audit_errors);
    Alcotest.(check bool) "names the dangling conn" true
      (contains (List.hd a.Obs.Btrace.audit_errors) "undeclared conn 7")

let test_validate_flags_backwards_time () =
  let _net, _fwd, _bwd, _pkt = fixture () in
  let buf = Buffer.create 256 in
  let w = Obs.Btrace.writer (Buffer.add_string buf) in
  Obs.Btrace.declare_conn_meta w 1 ~start_time:0. ~flow_size:None;
  Obs.Btrace.cwnd w ~time:5. ~conn:1 ~cwnd:2. ~ssthresh:8.;
  Obs.Btrace.cwnd w ~time:1. ~conn:1 ~cwnd:3. ~ssthresh:8.;
  Obs.Btrace.flush w;
  match Obs.Btrace.validate (Buffer.contents buf) with
  | Error msg -> Alcotest.failf "trace unreadable: %s" msg
  | Ok a ->
    Alcotest.(check int) "one error" 1 (List.length a.Obs.Btrace.audit_errors);
    Alcotest.(check bool) "names the regression" true
      (contains (List.hd a.Obs.Btrace.audit_errors) "time goes backwards")

(* A plain truncation (cut between events) is a note, not an error: the
   prefix is perfectly usable. *)
let test_validate_tolerates_plain_truncation () =
  let data, _ = encode_all () in
  match Obs.Btrace.validate (String.sub data 0 (String.length data - 1)) with
  | Error msg -> Alcotest.failf "truncated trace failed validation: %s" msg
  | Ok a ->
    Alcotest.(check bool) "torn note present" true
      (a.Obs.Btrace.audit_torn <> None);
    Alcotest.(check (list string)) "no errors" [] a.Obs.Btrace.audit_errors

(* The decoder takes only what the writer can produce.  Each of these
   files once crashed a trace command or passed tracecheck. *)
let malformed =
  [
    (* a string-def whose length (max_int - 2) overruns the data *)
    ( "huge string",
      "NSBT\002\000\000\253\255\255\255\255\255\255\255\063",
      `Torn );
    (* a conn-def whose id decodes negative *)
    ( "negative conn",
      "NSBT\002\002\128\128\128\128\128\128\128\128\064",
      `Corrupt );
    (* an 11-byte varint *)
    ( "long varint",
      "NSBT\002\002\128\128\128\128\128\128\128\128\128\128\001",
      `Corrupt );
    (* an inject whose time delta is an 11-byte varint *)
    ( "long time varint",
      "NSBT\002\016\128\128\128\128\128\128\128\128\128\128\001",
      `Corrupt );
    (* a conn-meta with a NaN start time *)
    ( "nan start",
      "NSBT\002\003\001\000\000\000\000\000\000\248\127\000",
      `Corrupt );
    (* a queue record cut inside its two-byte link id: the one byte
       left would name an undefined link, but the cut comes first *)
    ("link id cut", "NSBT\002\018\000\133", `Torn);
    (* a string-def whose sid decodes negative, a conn-def, and a loss
       whose reason is that sid *)
    ( "negative string id",
      "NSBT\002\000\128\128\128\128\128\128\128\128\064\004boom\
       \002\001\024\000\001\128\128\128\128\128\128\128\128\064",
      `Corrupt );
  ]

let test_malformed_stops_cleanly () =
  List.iter
    (fun (name, data, kind) ->
      let items = ref 0 in
      (match (Obs.Btrace.iter data (fun _ -> incr items), kind) with
       | Ok (_, Some (Obs.Btrace.Torn _)), `Torn
       | Ok (_, Some (Obs.Btrace.Corrupt _)), `Corrupt ->
         ()
       | Ok (_, Some (Obs.Btrace.Torn msg | Obs.Btrace.Corrupt msg)), _ ->
         Alcotest.failf "%s: wrong kind of stop: %s" name msg
       | Ok (_, None), _ -> Alcotest.failf "%s: decoded as a clean trace" name
       | Error msg, _ -> Alcotest.failf "%s: rejected outright: %s" name msg);
      Alcotest.(check int) (name ^ ": no record delivered") 0 !items;
      match Obs.Btrace.validate data with
      | Error msg -> Alcotest.failf "%s: unreadable: %s" name msg
      | Ok a ->
        Alcotest.(check bool)
          (name ^ ": corruption is a validation error, truncation is not")
          (kind = `Corrupt)
          (a.Obs.Btrace.audit_errors <> []))
    malformed

(* ---------------- fuzzing every reader ---------------- *)

(* A short real run with an outage, so fault records and interned
   labels are in the stream. *)
let real_trace =
  lazy
    (let buf = Buffer.create (1 lsl 16) in
     let scenario =
       Core.Scenario.make ~name:"btrace-fuzz" ~tau:0.01 ~buffer:(Some 10)
         ~conns:
           [
             Core.Scenario.conn Core.Scenario.Forward;
             Core.Scenario.conn ~start_time:0.5 Core.Scenario.Reverse;
           ]
         ~duration:4. ~warmup:1.
         ~faults:
           [
             ( Core.Scenario.Fwd_bottleneck,
               Faults.Spec.make
                 ~outage:{ Faults.Spec.windows = [ (2., 2.5) ]; flap = None }
                 () );
           ]
         ()
     in
     ignore
       (Core.Runner.run
          ~obs:
            (Obs.Probe.setup ~metrics:false ~btrace:(Buffer.add_string buf) ())
          scenario
         : Core.Runner.result);
     Buffer.contents buf)

(* ---------------- frozen decoder output ---------------- *)

(* Bit-exact equality of items: [=] equates -0.0 with 0.0, which
   [item_to_string] tells apart. *)
let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_link (a : Obs.Btrace.link) (b : Obs.Btrace.link) =
  a.link_id = b.link_id && a.link_name = b.link_name
  && same_float a.bandwidth b.bandwidth

let identical a b =
  let open Obs.Btrace in
  match (a, b) with
  | Def_link l, Def_link l' -> same_link l l'
  | Def_conn_meta m, Def_conn_meta m' ->
    m.conn = m'.conn && same_float m.start_time m'.start_time
    && m.flow_size = m'.flow_size
  | Event (t, e), Event (t', e') -> (
    same_float t t'
    &&
    match (e, e') with
    | ( Enqueue { link = l; pkt = p; qlen = q },
        Enqueue { link = l'; pkt = p'; qlen = q' } )
    | ( Depart { link = l; pkt = p; qlen = q },
        Depart { link = l'; pkt = p'; qlen = q' } ) ->
      same_link l l' && p = p' && q = q'
    | Drop { link = l; pkt = p }, Drop { link = l'; pkt = p' } ->
      same_link l l' && p = p'
    | ( Fault { link = l; label; pkt = p },
        Fault { link = l'; label = m; pkt = p' } ) ->
      same_link l l' && label = m && p = p'
    | Cwnd { conn; cwnd; ssthresh }, Cwnd c ->
      conn = c.conn && same_float cwnd c.cwnd && same_float ssthresh c.ssthresh
    | _ -> e = e')
  | _ -> a = b

(* Everything [iter] says about each of [variants] streams
   ([variant j] is the j-th) — the version, every delivered item and how
   it stopped — folded into one MD5.  The k-th item adds [snd same.(k)]
   to the fold if it is bit-identical to [fst same.(k)]; [fresh] adds
   any other. *)
let variants_md5 ~same ~fresh variants variant =
  let digests = Buffer.create 65536 and out = Buffer.create 4096 in
  for j = 0 to variants - 1 do
    Buffer.clear out;
    let k = ref 0 in
    (match
       Obs.Btrace.iter (variant j) (fun i ->
           if !k < Array.length same && identical i (fst same.(!k)) then
             Buffer.add_string out (snd same.(!k))
           else fresh out i;
           incr k)
     with
     | Error msg -> Buffer.add_string out ("error " ^ msg)
     | Ok (v, stop) ->
       Printf.bprintf out "v%d %s" v
         (match stop with
          | None -> "end"
          | Some (Obs.Btrace.Torn msg) -> "torn " ^ msg
          | Some (Obs.Btrace.Corrupt msg) -> "corrupt " ^ msg));
    Buffer.add_string digests (Digest.string (Buffer.contents out))
  done;
  Digest.to_hex (Digest.string (Buffer.contents digests))

let items_of data =
  let items = ref [] in
  ignore (Obs.Btrace.iter data (fun i -> items := i :: !items));
  Array.of_list (List.rev !items)

(* Every prefix of [data], the empty one and [data] itself included,
   each item as the MD5 of its [item_to_string].  Every item of every
   prefix is quadratic work, so an item bit-identical to the whole
   stream's item at its index reuses that item's digest. *)
let prefixes_md5 data =
  let md5 i = Digest.string (item_to_string i) in
  variants_md5
    ~same:(Array.map (fun i -> (i, md5 i)) (items_of data))
    ~fresh:(fun out i -> Buffer.add_string out (md5 i))
    (String.length data + 1)
    (fun len -> String.sub data 0 len)

(* An item's exact bytes, added to [b]: every int, bool and string, and
   every float's bits. *)
let add_int b n = Buffer.add_int64_le b (Int64.of_int n)
let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let add_bool b x = Buffer.add_char b (if x then 't' else 'f')

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_link b (l : Obs.Btrace.link) =
  add_int b l.link_id;
  add_str b l.link_name;
  add_float b l.bandwidth

let add_pkt b (p : Obs.Btrace.pkt) =
  add_int b p.id;
  add_int b p.conn;
  add_bool b (p.kind = Net.Packet.Ack);
  add_int b p.seq;
  add_bool b p.retransmit;
  add_int b p.size

let add_item_bits b = function
  | Obs.Btrace.Def_link l -> Buffer.add_char b 'L'; add_link b l
  | Def_conn c -> Buffer.add_char b 'C'; add_int b c
  | Def_conn_meta { conn; start_time; flow_size } ->
    Buffer.add_char b 'M';
    add_int b conn;
    add_float b start_time;
    Option.iter (add_int b) flow_size;
    add_bool b (flow_size = None)
  | Event (t, ev) -> (
    Buffer.add_string b (Obs.Btrace.ev_label ev);
    add_float b t;
    match ev with
    | Inject p | Deliver p -> add_pkt b p
    | Enqueue { link; pkt; qlen } | Depart { link; pkt; qlen } ->
      add_link b link; add_pkt b pkt; add_int b qlen
    | Drop { link; pkt } -> add_link b link; add_pkt b pkt
    | Fault { link; label; pkt } ->
      add_link b link; add_str b label; add_pkt b pkt
    | Send { conn; pkt } -> add_int b conn; add_pkt b pkt
    | Cwnd { conn; cwnd; ssthresh } ->
      add_int b conn; add_float b cwnd; add_float b ssthresh
    | Loss { conn; reason } -> add_int b conn; add_str b reason
    | Ack_tx { conn; ackno; delayed; dup } ->
      add_int b conn; add_int b ackno; add_bool b delayed; add_bool b dup)

(* [data] with the byte at each of [positions] overwritten, in turn, by
   0x80 (a continuation bit on nothing) and by 0xff (every bit set).  A
   corrupt time delta shifts every later time, so most items after it
   are new: they go into the fold as their exact bits, which cost a
   fraction of an [item_to_string] and its MD5.  An item identical to
   [data]'s at its index is one byte, and [data]'s items lead the fold as
   their [item_to_string] MD5s. *)
let corruptions_md5 data positions =
  let positions = Array.of_list positions in
  let whole = items_of data in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (Array.to_list
             (Array.map (fun i -> Digest.string (item_to_string i)) whole))
       ^ variants_md5
           ~same:(Array.map (fun i -> (i, "=")) whole)
           ~fresh:add_item_bits
           (2 * Array.length positions)
           (fun k ->
             let b = Bytes.of_string data in
             Bytes.set b positions.(k / 2)
               (if k land 1 = 0 then '\x80' else '\xff');
             Bytes.unsafe_to_string b)))

(* The MD5 of [export_chrome]'s whole output. *)
let chrome_md5 data =
  let out = Buffer.create 65536 in
  ignore (Obs.Btrace.export_chrome data (Buffer.add_string out));
  Digest.to_hex (Digest.string (Buffer.contents out))

(* Pinned from the decoder that boxed an [Int64] per time byte, before
   the cursor rewrite; the rewrite must reproduce its output exactly.
   A real trace's first times need 9- and 10-byte deltas, so both time
   paths are covered.  [real_trace] is simulated afresh, so its bytes
   are pinned first: a model change fails that check, not the
   decoder's, and its decoder pin must then be re-taken with a decoder
   that passes the [encode_all] pin.  The Perfetto export's pins were
   taken from its [Printf.sprintf] renderer, before it rendered into
   one buffer; [encode_all] has every event kind and [real_trace] the
   fault records of a real outage. *)
let test_frozen_prefix_outputs () =
  let data, _ = encode_all () in
  Alcotest.(check string) "every prefix of encode_all's stream"
    "08f22bc90b900ab0522d6495f53f1ca4" (prefixes_md5 data);
  Alcotest.(check string) "perfetto export of encode_all's stream"
    "5bd8f4c3e1ce5ddc6b7df63131bc3c4c" (chrome_md5 data);
  let real = Lazy.force real_trace in
  Alcotest.(check string) "the real trace's bytes, which only the model moves"
    "1cc4cd90a7ecfa0b93b729c03a8abe01" (Digest.to_hex (Digest.string real));
  Alcotest.(check string) "every prefix of a real trace"
    "99c0900020bc1d5e4d4797872f044e98" (prefixes_md5 real);
  Alcotest.(check string) "perfetto export of a real trace"
    "a688176b668ccfbb591e202033f44c85" (chrome_md5 real)

(* One overwritten byte anywhere: each corruption stops the walk with
   a note (a too-long varint, a negative id, an undefined link or
   string, a non-finite float, an unknown tag), is read as a torn tail,
   or decodes to other values, and every outcome is pinned.  Taken from
   the decoder that checked bounds on every byte, before the decode core
   that checks them once per record.  [real_trace]'s first 2 KB hold its
   defs and its 9- and 10-byte time deltas, and its last 256 bytes the
   records near the end, which that core decodes from a padded copy; its
   bytes are pinned first, as in [test_frozen_prefix_outputs]. *)
let test_frozen_corruptions () =
  let data, _ = encode_all () in
  Alcotest.(check string) "one byte of encode_all's stream overwritten"
    "1589c1748d34eacb572b8ad00689c9a1"
    (corruptions_md5 data (List.init (String.length data) Fun.id));
  let real = Lazy.force real_trace in
  let n = String.length real in
  Alcotest.(check string) "the real trace's bytes, which only the model moves"
    "1cc4cd90a7ecfa0b93b729c03a8abe01" (Digest.to_hex (Digest.string real));
  Alcotest.(check string) "one byte of a real trace's head or tail overwritten"
    "ab2065b67b3a3afbdcc95896cfdd4663"
    (corruptions_md5 real
       (List.init 2048 Fun.id @ List.init 256 (fun i -> n - 256 + i)))

(* ---------------- allocation guards ---------------- *)

(* Bounds rather than exact counts: CI builds on OCaml 4.14 and 5.1. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The decode core allocates nothing per record, so the fold that
   [netsim trace stats] runs, [Flowstats]' observer on its callbacks,
   allocates only what the accounting does (an RTT sample boxes floats)
   and what a trace costs once (the cursor, tables, the padded tail):
   0.60 words a record on this short trace (OCaml 5.1.1), where decoding
   items and feeding them took 11.5.  The items are [iter]'s only
   allocation, and a packet or time that repeats a recent one is shared,
   not copied: 9.07 words a record, where the pull cursor that wrapped
   each item in a [Some] took 11.2, a fresh copy of every packet and
   time 15.2, and boxing an Int64 per time byte and a closure per varint
   66.  [read] adds one list cell per item: 12.07 words a record, where
   the pull cursor took 14.2 and collecting [iter]'s items and reversing
   them 21.2. *)
let test_decoder_allocation () =
  let data = Lazy.force real_trace and records = ref 0 in
  let iter_total =
    minor_words (fun () ->
        ignore (Obs.Btrace.iter data (fun _ -> incr records) : _ result))
  in
  let read_total =
    minor_words (fun () -> ignore (Obs.Btrace.read data : _ result))
  in
  let fold_total =
    minor_words (fun () ->
        let fs = Obs.Flowstats.create () in
        ignore (Obs.Btrace.decode data (Obs.Flowstats.observer fs) : _ result))
  in
  let check name total bound =
    let words = total /. float_of_int !records in
    if words > bound then
      Alcotest.failf "%s allocates %.2f minor words per record (bound %g)" name
        words bound
  in
  check "iter" iter_total 10.;
  check "read" read_total 13.;
  check "the trace stats fold" fold_total 1.

(* The writer allocates nothing per record: its clock keeps the
   previous time as a flat float.  Keeping it as an [int64] field boxed
   3 words a record. *)
let test_writer_allocation () =
  let _net, _fwd, _bwd, pkt = fixture () in
  let p = pkt 0 and records = 10_000 in
  let w = Obs.Btrace.writer ignore in
  let words =
    minor_words (fun () ->
        for _ = 1 to records do
          Obs.Btrace.inject w ~time:1.0 p
        done)
    /. float_of_int records
  in
  if words > 1. then
    Alcotest.failf
      "the writer allocates %.2f minor words per record (bound 1)" words

(* Run every reader over [data].  None may raise, and they must agree:
   [read] holds exactly what [iter] delivered, item for item and in
   order (floats compared bitwise), with [iter]'s stop note as [torn];
   [Flowstats]' callback fold stops where [iter] does and gives the
   flow stats that feeding [iter]'s items gives; an export of a
   non-trace writes nothing; and a corrupt record is a validation
   error. *)
let readers_agree data =
  let fs = Obs.Flowstats.create () in
  let delivered = ref [] in
  let decoded =
    Obs.Btrace.iter data (fun item ->
        delivered := item :: !delivered;
        Obs.Flowstats.feed fs item)
  in
  let folded = Obs.Flowstats.create () in
  let fold = Obs.Btrace.decode data (Obs.Flowstats.observer folded) in
  let out = Buffer.create 1024 in
  let jsonl = Obs.Btrace.export_jsonl data (Buffer.add_string out) in
  let chrome = Obs.Btrace.export_chrome data (Buffer.add_string out) in
  let read = Obs.Btrace.read data in
  let audit = Obs.Btrace.validate data in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  if jsonl <> decoded || chrome <> decoded || fold <> decoded then
    fail "an export or the callback fold decoded differently from iter";
  if Obs.Flowstats.to_json folded <> Obs.Flowstats.to_json fs then
    fail "the callback fold's flow stats differ from feeding iter's items";
  match (decoded, read, audit) with
  | Error _, Error _, Error _ ->
    if Buffer.length out > 0 then fail "export of a non-trace wrote output";
    true
  | Ok (_, stop), Ok file, Ok a ->
    let delivered = List.rev !delivered in
    let kept = List.length file.Obs.Btrace.items
    and sent = List.length delivered in
    if kept <> sent then fail "read kept %d items, iter delivered %d" kept sent;
    List.iteri
      (fun i (got, want) ->
        if not (identical got want) then
          fail "read's item %d is %s, iter delivered %s" i (item_to_string got)
            (item_to_string want))
      (List.combine file.Obs.Btrace.items delivered);
    let note = Option.map (function Obs.Btrace.Torn m | Corrupt m -> m) stop in
    if file.Obs.Btrace.torn <> note then
      fail "read's torn note is %s, iter stopped with %s"
        (Option.value file.Obs.Btrace.torn ~default:"none")
        (Option.value note ~default:"none");
    (match stop with
     | Some (Obs.Btrace.Corrupt _) when a.Obs.Btrace.audit_errors = [] ->
       fail "corrupt record passed validation"
     | _ -> ());
    true
  | _ -> fail "readers disagree on whether this is a trace"

let bytes_gen = QCheck.Gen.(string_size ~gen:char (int_range 0 48))

(* Mostly well-tagged records with random payloads, so the walk gets
   past the tag byte into every field decoder.  Payload bytes lean on
   continuation and sign bits, so long and negative varints show up. *)
let records_gen =
  let open QCheck.Gen in
  let tag =
    oneof
      [
        map Char.chr (int_range 0x00 0x03);
        map Char.chr (int_range 0x10 0x19);
        char;
      ]
  in
  let byte = frequency [ (1, char); (1, oneofl [ '\x80'; '\xff'; '\x40' ]) ] in
  map (String.concat "")
    (list_size (int_range 1 12)
       (map2 (fun t payload -> String.make 1 t ^ payload) tag
          (string_size ~gen:byte (int_range 0 20))))

let header = Obs.Btrace.magic ^ "\002"

let prop_fuzz name gen =
  QCheck.Test.make ~name ~count:400
    (QCheck.make ~print:String.escaped gen)
    readers_agree

let prop_fuzz_raw = prop_fuzz "readers survive arbitrary bytes" bytes_gen

let prop_fuzz_after_header =
  prop_fuzz "readers survive arbitrary records after a valid header"
    QCheck.Gen.(
      map (fun body -> header ^ body) (oneof [ bytes_gen; records_gen ]))

(* Overwrite a stretch of a real run's trace with arbitrary bytes. *)
let prop_fuzz_spliced =
  prop_fuzz "readers survive bytes spliced into a real trace"
    QCheck.Gen.(
      let* junk = oneof [ bytes_gen; records_gen ] in
      let data = Lazy.force real_trace in
      let n = String.length data in
      let* at = int_range 5 n in
      let* cut = int_range 0 (min 16 (n - at)) in
      return
        (String.sub data 0 at ^ junk ^ String.sub data (at + cut) (n - at - cut)))

let suite =
  ( "btrace",
    [
      Alcotest.test_case "all event kinds round-trip bit-exactly" `Quick
        test_roundtrip;
      Alcotest.test_case "times of every delta width round-trip" `Quick
        test_time_widths_roundtrip;
      Alcotest.test_case "non-traces rejected with a reason" `Quick
        test_reject_non_traces;
      Alcotest.test_case "every truncation yields a clean prefix" `Quick
        test_every_truncation_recovers;
      Alcotest.test_case "one lost byte loses one record" `Quick
        test_truncation_keeps_complete_records;
      Alcotest.test_case "jsonl export matches the line renderer" `Quick
        test_export_jsonl_matches_line_renderer;
      Alcotest.test_case "version-1 streams stay readable" `Quick
        test_reads_v1_streams;
      Alcotest.test_case "validate passes a clean trace" `Quick
        test_validate_clean;
      Alcotest.test_case "validate flags undeclared conn refs" `Quick
        test_validate_flags_undeclared_conn;
      Alcotest.test_case "validate flags backwards time" `Quick
        test_validate_flags_backwards_time;
      Alcotest.test_case "validate tolerates plain truncation" `Quick
        test_validate_tolerates_plain_truncation;
      Alcotest.test_case "malformed records stop the decoder cleanly" `Quick
        test_malformed_stops_cleanly;
      Alcotest.test_case "every prefix decodes as pinned" `Quick
        test_frozen_prefix_outputs;
      Alcotest.test_case "every one-byte corruption decodes as pinned" `Quick
        test_frozen_corruptions;
      Alcotest.test_case "decoding allocates only the items" `Quick
        test_decoder_allocation;
      Alcotest.test_case "the writer allocates nothing per record" `Quick
        test_writer_allocation;
      QCheck_alcotest.to_alcotest prop_fuzz_raw;
      QCheck_alcotest.to_alcotest prop_fuzz_after_header;
      QCheck_alcotest.to_alcotest prop_fuzz_spliced;
    ] )
